import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from addcoal import exact_oracles
from addcoal import _replay
from addcoal.experiment import ExperimentSpec
from addcoal import process_core
from addcoal.process_core import (
    Embedding,
    EventBatch,
    _check_n,
    _lemire32,
    direct_inputs,
    direct_picks,
    direct_rows,
    parking_tries,
    simulate,
    simulate_rows,
)
from addcoal.seeding import make_rng, substream_bits, substream_rng
from tree_walk import tree_walk

ALL_SIMS = [functools.partial(simulate, embedding=embedding) for embedding in Embedding]


def _rows(batch):
    """The batch's events as (L, R, D) tuples of ints, one per step."""
    return [tuple(int(col[k]) for col in (batch.L, batch.R, batch.D))
            for k in range(len(batch))]


def test_monodisperse_basics():
    # before the first merge every chain holds n clusters of size 1
    for sim in ALL_SIMS:
        batch = sim(5, make_rng(0))
        assert sum(batch.spectrum_at(0).values()) == 5
        assert batch.largest_cluster_at(0) == 1
    assert simulate(100, make_rng(0), Embedding.DIRECT).spectrum_at(0) == {1: 100}


def test_snapshots_reject_a_batch_of_several_runs():
    batch = simulate_rows(5, substream_bits(0, range(6)), Embedding.DIRECT)
    for snapshot in (batch.largest_cluster_at, batch.spectrum_at):
        with pytest.raises(ValueError, match=r"one run, not a batch of shape \(6, 4\)"):
            snapshot(2)


def test_monodisperse_rejects_zero():
    for sim in ALL_SIMS:
        with pytest.raises(ValueError):
            sim(0, make_rng(0))


def test_direct_n2_only_outcome():
    batch = simulate(2, make_rng(0), Embedding.DIRECT)
    assert _rows(batch) == [(1, 1, 0)]
    assert batch.spectrum_at(1) == {2: 1}
    with pytest.raises(ValueError):  # one cluster left: no further merge
        batch.spectrum_at(2)


def test_direct_full_run_invariants():
    n = 30
    batch = simulate(n, make_rng(11), Embedding.DIRECT)
    assert len(batch) == n - 1
    for k, (L, R, D) in enumerate(_rows(batch), 1):
        assert 0 <= D <= L - 1
        assert 1 <= min(L, R) and L + R <= n
        spectrum = batch.spectrum_at(k)
        assert sum(spectrum.values()) == n - k
        assert sum(size * cnt for size, cnt in spectrum.items()) == n
    assert batch.largest_cluster_at(n - 1) == n
    assert batch.spectrum_at(n - 1) == {n: 1}


def test_direct_size_biased_pick():
    # n=3 step 2: the remaining pair is {1, 2}; P(L = 2) = 2/3
    hits = 0
    trials = 4000
    rng = make_rng(5)
    for _ in range(trials):
        batch = simulate(3, rng, Embedding.DIRECT)
        assert sorted((batch.L[1], batch.R[1])) == [1, 2]
        hits += int(batch.L[1] == 2)
    assert abs(hits / trials - 2 / 3) < 0.03


@pytest.mark.parametrize("sim", ALL_SIMS)
def test_event_invariants_all_embeddings(sim):
    n = 257
    batch = sim(n, make_rng(123))
    assert len(batch) == n - 1
    assert np.all(batch.D >= 0) and np.all(batch.D <= batch.L - 1)
    assert np.all(batch.L >= 1) and np.all(batch.R >= 1)
    assert np.all(batch.L + batch.R <= n)
    assert batch.largest_cluster_at(n - 1) == n
    # mass conservation at intermediate steps
    for step in (0, 1, n // 2, n - 1):
        spectrum = batch.spectrum_at(step)
        assert sum(size * cnt for size, cnt in spectrum.items()) == n
        assert sum(spectrum.values()) == n - step


@pytest.mark.parametrize("sim", ALL_SIMS)
def test_determinism_per_embedding(sim):
    a = sim(400, make_rng(99))
    b = sim(400, make_rng(99))
    for field in ("L", "R", "u", "D"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = sim(400, make_rng(100))
    assert not all(
        np.array_equal(getattr(a, f), getattr(c, f)) for f in ("L", "R", "u")
    )


def test_simulate_dispatch():
    for emb in Embedding:
        batch = simulate(64, make_rng(1), emb)
        assert len(batch) == 63
    batch = simulate(64, make_rng(1), "parking")
    assert len(batch) == 63


def test_simulate_rejects_small_n():
    for sim in ALL_SIMS:
        with pytest.raises(ValueError):
            sim(1, make_rng(0))


def test_n_stays_below_2_to_the_31():
    # the walks' compact state is int32, so a larger n is refused before any draw
    for sim in ALL_SIMS:
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"2 <= n < 2\*\*31"):
            sim(2**31, rng)
        assert rng.bit_generator.state == state
    with pytest.raises(ValueError, match=r"2 <= n < 2\*\*31"):
        ExperimentSpec(n=2**31)
    _check_n(2**31 - 1)


def test_tree_and_parking_n2():
    for embedding in (Embedding.TREE, Embedding.PARKING):
        assert _rows(simulate(2, make_rng(0), embedding)) == [(1, 1, 0)]


def _direct_events(n, elem, prey_u, uprime):
    """Plain-python step-by-step replay of the two-stage chain: (L, R, D) per step.

    Clusters are frozensets in a list of live clusters; the predator is
    swapped out for the last live cluster, then the prey index
    int(u * (live clusters left)) is clamped and the merged cluster takes
    the prey's place.
    """
    live = [frozenset([i]) for i in range(n)]
    events = []
    for k in range(n - 1):
        ia = next(i for i, c in enumerate(live) if int(elem[k]) in c)
        pred = live[ia]
        live[ia] = live[-1]
        live.pop()
        j = min(int(float(prey_u[k]) * len(live)), len(live) - 1)
        prey = live[j]
        live[j] = pred | prey
        x, y = len(pred), len(prey)
        events.append((x, y, int(float(uprime[k]) * x)))
    return events


def test_direct_kernel_matches_reference_replay():
    from addcoal._replay import direct_chain_replay

    def check(n, elem, prey_u, uprime):
        L, R = direct_chain_replay(n, elem, prey_u)
        got = L, R, process_core._floor_displacement(uprime, L)
        rows = [tuple(int(col[k]) for col in got) for k in range(n - 1)]
        assert rows == _direct_events(n, elem, prey_u, uprime)

    rng = make_rng(31)
    for n in (2, 3, 60):
        for _ in range(20):
            check(n, rng.integers(0, n, size=n - 1), rng.random(n - 1), rng.random(n - 1))
    # u just below 1: the prey pick is the last live root (u * left rounds below left,
    # so the reference's clamp never binds), and D = L - 1, the largest displacement below L
    top = np.nextafter(1.0, 0.0)
    for n in (2, 3, 60):
        ones = np.full(n - 1, top)
        check(n, rng.integers(0, n, size=n - 1), ones, ones)
        L, _ = direct_chain_replay(n, np.zeros(n - 1, np.int64), ones)
        assert np.array_equal(process_core._floor_displacement(ones, L), L - 1)


def test_prey_pick_below_left_without_a_clamp():
    # the largest uniform below 1 times any live-root count rounds below that count
    left = np.arange(1, (1 << 22) + 1, dtype=np.int64)
    assert ((np.nextafter(1.0, 0.0) * left).astype(np.int64) < left).all()
    assert (_replay._prey_index(3, np.full(2, np.nextafter(1.0, 0.0))) == [1, 0]).all()


def _binomial_chain():
    """A direct chain of n = 17 whose last find climbs floor(log2 16) = 4 links.

    Steps 0-14 join elements 0..15 into one binomial tree by equal-size
    merges, the block holding element 0 always the prey, so a tie keeps the
    predator's root and element 0 ends 4 links below the root.  Step 15
    takes element 0 as the predator and element 16 as the prey.  Returns
    (n, elem, prey_u), prey_u aiming at the middle of the prey's slot in the
    live-root order of `_direct_events`.
    """
    n = 17
    merges = [(i + s, i) for s in (1, 2, 4, 8) for i in range(0, 16, 2 * s)] + [(0, 16)]
    live = [frozenset([i]) for i in range(n)]
    prey_u = []
    for pred, prey in merges:
        ia = next(i for i, c in enumerate(live) if pred in c)
        cluster = live[ia]
        live[ia] = live[-1]
        live.pop()
        j = next(i for i, c in enumerate(live) if prey in c)
        prey_u.append((j + 0.5) / len(live))
        live[j] = cluster | live[j]
    return n, np.array([pred for pred, _ in merges]), np.array(prey_u)


def test_direct_kernels_reach_the_union_by_size_depth_bound():
    n, elem, prey_u = _binomial_chain()
    want = [(x, y) for x, y, _ in _direct_events(n, elem, prey_u, np.zeros(n - 1))]
    assert want == [(1, 1)] * 8 + [(2, 2)] * 4 + [(4, 4)] * 2 + [(8, 8), (16, 1)]
    rows = np.tile(elem, (3, 1)), np.tile(prey_u, (3, 1))
    for L, R in (_replay.direct_chain_replay(n, elem, prey_u),
                 *zip(*_replay.direct_chain_rows(n, *rows))):
        assert list(zip(L.tolist(), R.tolist())) == want


@pytest.mark.parametrize("n", [2, 3, 5, 50, 300])
def test_direct_rows_match_the_walk_row_by_row(n):
    rng = make_rng(n)
    rows = 40
    elem = rng.integers(0, n, size=(rows, n - 1))
    prey_u = rng.random((rows, n - 1))
    # prey uniforms just below 1 pick the last live root, on whole rows and on single steps
    prey_u[::4] = np.nextafter(1.0, 0.0)
    prey_u[1::4, ::2] = np.nextafter(1.0, 0.0)
    lockstep = _replay.direct_chain_rows(n, elem, prey_u)
    assert all(col.shape == (rows, n - 1) for col in lockstep)
    for r in range(rows):
        walk = _replay.direct_chain_replay(n, elem[r], prey_u[r])
        assert all(np.array_equal(col[r], w) for col, w in zip(lockstep, walk))


def _per_generator_draws(n, rngs, uniforms):
    """The reference for `direct_rows`: numpy's own draws, one generator at a time."""
    draw = direct_picks if uniforms == 1 else direct_inputs
    return [np.stack(col) for col in zip(*(draw(n, rng) for rng in rngs))]


def _pcg_position(bit):
    return bit.state["state"]


def _assert_same_draws(n, master, reps, uniforms):
    bits = substream_bits(master, reps)
    got = direct_rows(n, bits, uniforms)
    refs = [substream_rng(master, rep) for rep in reps]
    want = _per_generator_draws(n, refs, uniforms)
    assert len(got) == uniforms + 1
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (len(reps), n - 1)
        assert np.array_equal(g, w)
    # each bit generator ends where numpy's draws leave it
    assert [_pcg_position(b) for b in bits] == [_pcg_position(r.bit_generator) for r in refs]


@pytest.mark.parametrize("uniforms", [1, 3])
@pytest.mark.parametrize("n", [2, 3, 5, 50, 51, 4097])
def test_raw_block_draws_equal_per_generator_draws(n, uniforms):
    # rows on both sides of the 4096-index seeding block
    reps = range(4096 - 4, 4096 + 4) if n > 1000 else range(4096 - 30, 4096 + 30)
    for master in (0, 7, 2**63 + 5, 2**64 - 1):
        _assert_same_draws(n, master, reps, uniforms)


def _emitting(word):
    """A generator whose next raw PCG64 word is `word`: with a 128-bit state of
    high half 0, the XSL-RR output is the low half, unrotated."""
    bit = np.random.PCG64(0)
    state = bit.state
    state["state"]["state"] = word
    bit.state = state
    bit.advance(-1)
    return np.random.Generator(bit)


def _leftover_word(n, low, high):
    """The raw word whose uint32 halves leave Lemire remainders `low` and
    `high` (low half first); n is odd, so u32 * n is a bijection mod 2**32."""
    inverse = pow(n, -1, 2**32)
    return (low * inverse) % 2**32 | (high * inverse) % 2**32 << 32


@pytest.mark.parametrize("n", [3, 51, 1431655767])
def test_lemire_threshold_is_numpys_at_the_boundary(n):
    threshold = (2**32 - n) % n
    # the low half sits just below numpy's threshold, the high half on it
    word = _leftover_word(n, threshold - 1, threshold)
    assert _emitting(word).bit_generator.random_raw() == word
    values, rejected = _lemire32(np.array([word], np.uint64), n)
    assert rejected.tolist() == [True, False]
    assert values[1] == _emitting(word).integers(0, n, 1)[0]
    # swapped: the low half is kept and comes first
    word = _leftover_word(n, threshold, threshold - 1)
    values, rejected = _lemire32(np.array([word], np.uint64), n)
    assert rejected.tolist() == [False, True]
    assert values[0] == _emitting(word).integers(0, n, 1)[0]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("n", [2, 50, 1431655767])
def test_lemire_rule_keeps_numpys_values(n, seed):
    # at n = 1431655767 about a third of the draws are rejected
    count = 1000
    raw = np.random.PCG64(seed).random_raw(count)
    values, rejected = _lemire32(raw, n)
    kept = values[~rejected]
    assert kept.size >= count
    numpy_values = np.random.Generator(np.random.PCG64(seed)).integers(0, n, count)
    assert np.array_equal(kept[:count], numpy_values)
    if n == 1431655767:
        assert 0.3 < rejected.mean() < 0.37


@pytest.mark.parametrize("uniforms", [1, 3])
def test_rows_with_a_rejection_are_drawn_again_by_numpy(monkeypatch, uniforms):
    # a detector that flags every draw sends every row through rewind and redraw
    def rejecting_all(raw, n):
        values, rejected = _lemire32(raw, n)
        return values, np.ones_like(rejected)

    monkeypatch.setattr(process_core, "_lemire32", rejecting_all)
    for n in (2, 5, 50, 51):
        _assert_same_draws(n, 7, range(4090, 4102), uniforms)


def test_a_real_rejection_takes_the_redraw():
    n = 50
    # row 1's first raw word is 0: both of its uint32 halves leave remainder
    # 0 < (2**32 - 50) % 50 and are rejected; rows 0 and 2 are ordinary
    bits = [rng.bit_generator for rng in (make_rng(1), _emitting(0), make_rng(2))]
    refs = [make_rng(1), _emitting(0), make_rng(2)]
    assert _lemire32(np.zeros(1, np.uint64), n)[1].all()
    got = direct_rows(n, bits, 3)
    assert all(np.array_equal(g, w) for g, w in zip(got, _per_generator_draws(n, refs, 3)))
    assert [_pcg_position(b) for b in bits] == [_pcg_position(r.bit_generator) for r in refs]


@pytest.mark.parametrize("embedding", list(Embedding))
def test_blocks_draw_as_single_runs(embedding):
    # 20 generators replay in lockstep; 7, fewer than n, walk row by row
    n = 20
    for reps in (range(4090, 4110), range(4090, 4097)):
        bits = substream_bits(3, reps)
        batch = simulate_rows(n, bits, embedding)
        assert batch.L.shape == (len(reps), n - 1)
        for row, rep in enumerate(reps):
            rng = substream_rng(3, rep)
            single = simulate(n, rng, embedding)
            assert all(np.array_equal(getattr(batch, col)[row], getattr(single, col))
                       for col in ("L", "R", "u", "D"))
            # each bit generator ends where numpy's draws leave it
            assert _pcg_position(bits[row]) == _pcg_position(rng.bit_generator)


def test_lockstep_blocks_build_no_generator(monkeypatch):
    # lockstep direct and parking blocks read raw words from the bit
    # generators; only walked rows wrap theirs in a Generator
    built = []
    generator = np.random.Generator

    def counting(*args, **kwargs):
        built.append(args)
        return generator(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", counting)
    n = 20
    for embedding in (Embedding.DIRECT, Embedding.PARKING):
        simulate_rows(n, substream_bits(3, range(n)), embedding)
    assert built == []
    simulate_rows(n, substream_bits(3, range(n - 1)), Embedding.DIRECT)
    assert len(built) == n - 1


@pytest.mark.parametrize("n", [5, 50])
def test_tree_blocks_decode_in_lockstep_as_single_runs(n):
    # a block of n + 3 generators decodes its Prufer sequences with
    # `prufer_rows`; each single run walks `tree_parents_from_prufer`
    reps = range(4090, 4093 + n)
    batch = simulate_rows(n, substream_bits(3, reps), Embedding.TREE)
    for row, rep in enumerate(reps):
        single = simulate(n, substream_rng(3, rep), Embedding.TREE)
        assert all(np.array_equal(getattr(batch, col)[row], getattr(single, col))
                   for col in ("L", "R", "u", "D"))


def test_a_one_row_block_stacks_views():
    runs = [(np.arange(3), np.ones(3))]
    stacked = process_core._stack(runs)
    assert all(s.shape == (1, 3) and np.shares_memory(s, a) for s, a in zip(stacked, runs[0]))
    runs.append((np.arange(3, 6), np.zeros(3)))
    assert [s.tolist() for s in process_core._stack(runs)] == [[[0, 1, 2], [3, 4, 5]],
                                                               [[1, 1, 1], [0, 0, 0]]]


def _special_trees(n):
    """(parents, top endpoints): random trees, then a path inserted four ways:
    in a random order, from the far end up with the far-end leaf last (n - 2
    rounds of `tree_replay`'s pointer doubling), from the far end up (an rp
    forest n - 1 high, so n - 1 rounds of its subtree sizes) and from the
    root down; a star; a broom, the path with its end leaf moved one vertex
    up, inserted like the second path, whose last edge then finds from the
    bottom of a chain of n - 2 places; and last the path rooted at n - 1, in
    a random order, so that one row of the block has its root elsewhere."""
    rng = make_rng(n)
    path = np.arange(-1, n - 1)
    star = np.r_[-1, np.zeros(n - 1, np.int64)]
    broom = np.r_[path[:-1], max(0, n - 3)]
    far_first = np.r_[np.arange(n - 2)[::-1], n - 2]
    par = np.stack([_replay.tree_parents_from_prufer(n, rng.integers(0, n, size=n - 2))
                    for _ in range(36)] + [path, path, path, path, star, broom,
                                           np.r_[np.arange(1, n), -1]])
    perm = np.stack([rng.permutation(n - 1) for _ in range(37)]
                    + [far_first, np.arange(n - 1)[::-1], np.arange(n - 1),
                       rng.permutation(n - 1), far_first])
    return par, np.vstack([perm + 1, rng.permutation(n - 1)])


def _every_tree_in_three_orders(n):
    """Every tree on n vertices (one per Prufer sequence), three times, each
    row in a random edge order."""
    rng = make_rng(n)
    par = _replay.prufer_rows(n, np.array(list(itertools.product(range(n), repeat=n - 2))))
    par = np.tile(par, (3, 1))
    return par, np.stack([rng.permutation(n - 1) for _ in par]) + 1


def _one_uniform_tree(n):
    """A uniform random tree in a uniform edge order, as `simulate` draws."""
    rng = make_rng(n)
    par = _replay.tree_parents_from_prufer(n, rng.integers(0, n, size=n - 2))
    return par[None], rng.permutation(n - 1)[None] + 1


@pytest.mark.parametrize(
    "n, trees",
    [(n, _special_trees) for n in (2, 3, 5, 50, 300)]
    + [(6, _every_tree_in_three_orders), (100_000, _one_uniform_tree)],
    ids=["2", "3", "5", "50", "300", "6-every-tree", "100000-uniform"])
def test_tree_replay_matches_the_walk_row_by_row(n, trees):
    # `tree_replay` over the whole block and on each row's 1-D arrays,
    # against the union-find reference walk
    par, top = trees(n)
    bottom = np.take_along_axis(par, top, axis=1)
    block = _replay.tree_replay(n, bottom, top)
    assert all(col.shape == (len(top), n - 1) for col in block)
    for r in range(len(top)):
        walk = tree_walk(n, bottom[r], top[r])
        single = _replay.tree_replay(n, bottom[r], top[r])
        assert all(np.array_equal(col[r], w) for col, w in zip(block, walk))
        assert all(got.shape == (n - 1,) and np.array_equal(got, w) for got, w in zip(single, walk))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 50, 128])
def test_prufer_rows_match_the_walk_row_by_row(n):
    # every Prufer sequence up to n = 6 (n = 2: one empty sequence, zero
    # columns); above, random ones, then a star at 0, a star at n-1, and the
    # rising and falling paths
    if n <= 6:
        prufer = np.array(list(itertools.product(range(n), repeat=n - 2)), np.int64)
    else:
        prufer = np.vstack([make_rng(n).integers(0, n, size=(3 * n, n - 2)),
                            np.zeros(n - 2, np.int64), np.full(n - 2, n - 1),
                            np.arange(n - 2), np.arange(n - 2)[::-1]])
    par = _replay.prufer_rows(n, prufer)
    assert par.shape == (len(prufer), n)
    for row, seq in zip(par, prufer):
        assert np.array_equal(row, _replay.tree_parents_from_prufer(n, seq))


@pytest.mark.parametrize("n", [2, 3, 7, 50, 200])
def test_parking_rows_match_the_walk_row_by_row(n):
    rng = make_rng(n)
    # random tries, then every car at the last place (each one after the
    # first wraps to place 0), every car at place 0, and tries falling from
    # the last place, so that each car's block runs into the one before
    tries = np.vstack([rng.integers(0, n, size=(36, n - 1)),
                       np.full((2, n - 1), n - 1), np.zeros((1, n - 1), np.int64),
                       np.arange(n - 1, 0, -1)[None]])
    lockstep = _replay.parking_rows(n, tries)
    assert all(col.shape == (40, n - 1) for col in lockstep)
    for r in range(40):
        walk = _replay.parking_replay(n, tries[r])
        assert all(np.array_equal(col[r], w) for col, w in zip(lockstep, walk))


def _parking_events(n, tries):
    """Plain-python parking by scanning places: (L, R, D) per car.

    The car fills the first empty place p at or after its first try t.  L is
    1 plus the occupied run ending at p-1, R is 1 plus the occupied run
    starting at p+1 (after filling), and D = (p - t) mod n.
    """
    occupied = [False] * n
    events = []
    for t in tries:
        p = t
        while occupied[p]:
            p = (p + 1) % n
        occupied[p] = True
        x = y = 1
        while occupied[(p - x) % n]:
            x += 1
        while occupied[(p + y) % n]:
            y += 1
        events.append((x, y, (p - t) % n))
    return events


def _tree_parents(n, prufer):
    """Textbook Prufer decode (join the smallest leaf to the next entry),
    rooted at 0 by a stack walk: par[v] = parent of v, par[0] = -1."""
    degree = [1] * n
    for v in prufer:
        degree[v] += 1
    adj = [[] for _ in range(n)]

    def join(a, b):
        adj[a].append(b)
        adj[b].append(a)
        degree[a] -= 1
        degree[b] -= 1

    for v in prufer:
        join(min(u for u in range(n) if degree[u] == 1), v)
    join(*(u for u in range(n) if degree[u] == 1))
    par = [-1] * n
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w != par[v]:
                par[w] = v
                stack.append(w)
    return par


def _tree_events(n, par, order):
    """Insert edge (par[v], v), v = order[k] + 1, over frozenset components:
    (L, R) per step, L the size of the parent-side component."""
    comp = [frozenset([v]) for v in range(n)]
    events = []
    for i in order:
        bottom, top = comp[par[i + 1]], comp[i + 1]
        merged = bottom | top
        for v in merged:
            comp[v] = merged
        events.append((len(bottom), len(top)))
    return events


def test_parking_kernel_matches_reference_replay():
    from addcoal._replay import parking_replay

    rng = make_rng(17)
    for n in (60, 2, 3):
        for _ in range(20):
            tries = rng.integers(0, n, size=n - 1)
            got = parking_replay(n, tries)
            rows = [tuple(int(col[k]) for col in got) for k in range(n - 1)]
            assert rows == _parking_events(n, [int(t) for t in tries])


@pytest.mark.parametrize("compact", [False, True])
def test_parking_kernels_wrap_the_list_of_empty_places(monkeypatch, compact):
    # hand-built tries at n = 7: place 6 filled while place 0 is empty, and
    # a car probing from 6 to 0; places 5, 6, 0, 1 filled, so a car at 5
    # probes across the circle's end to 2; place 0 filled first, so the
    # block of a later car at 6 starts at prv[0] = 6.  In the lockstep block
    # that row follows one whose place 6 is still empty, so a row's list
    # that did not close on itself would link into its neighbour's.  Then n = 2
    if compact:  # the walk's state as int32 memoryviews
        monkeypatch.setattr(_replay, "COMPACT_N", 2)
    blocks = {7: np.array([[6, 6, 3, 6, 1, 0],
                           [5, 6, 0, 1, 5, 3],
                           [0, 6, 0, 5, 2, 2],
                           [6, 0, 5, 1, 6, 6]]),
              2: np.array([[0], [1]])}
    for n, tries in blocks.items():
        lockstep = _replay.parking_rows(n, tries)
        for r, row in enumerate(tries):
            expected = _parking_events(n, row.tolist())
            walk = _replay.parking_replay(n, row)
            assert [tuple(int(col[k]) for col in walk) for k in range(n - 1)] == expected
            assert [tuple(int(col[r, k]) for col in lockstep) for k in range(n - 1)] == expected


def test_tree_kernel_matches_reference_replay():
    rng = make_rng(23)
    from addcoal._replay import tree_parents_from_prufer, tree_replay

    for n in (40, 2, 3):
        for _ in range(20):
            prufer = rng.integers(0, n, size=n - 2)
            par = tree_parents_from_prufer(n, prufer)
            assert par.tolist() == _tree_parents(n, [int(v) for v in prufer])
            order = rng.permutation(n - 1)
            got = tree_replay(n, par[order + 1], order + 1)
            rows = [tuple(int(col[k]) for col in got) for k in range(n - 1)]
            assert rows == _tree_events(n, par.tolist(), [int(i) for i in order])


def _reference_law(sequences, total):
    law = {}
    for seq in sequences:
        law[seq] = law.get(seq, 0) + Fraction(1, total)
    return law


def test_enumerations_match_reference_replays():
    for n in range(2, 7):
        law = _reference_law(
            (tuple((min(L, R), max(L, R), L, D) for L, R, D in _parking_events(n, tries))
             for tries in itertools.product(range(n), repeat=n - 1)),
            n ** (n - 1))
        assert exact_oracles.enumerate_parking(n).probs == law
    for n in range(2, 6):
        pars = [_tree_parents(n, prufer) for prufer in itertools.product(range(n), repeat=n - 2)]
        law = _reference_law(
            (tuple((min(L, R), max(L, R), L) for L, R in _tree_events(n, par, order))
             for par in pars for order in itertools.permutations(range(n - 1))),
            n ** (n - 2) * math.factorial(n - 1))
        assert exact_oracles.enumerate_spanning_trees(n).probs == law


def _walk_last_block_counts(m):
    """Final-merge L counts by walking all m**(m-1) first-try vectors."""
    counts = np.zeros(m, np.int64)
    for tries in itertools.product(range(m), repeat=m - 1):
        L, _, _ = _replay.parking_replay(m, tries)
        counts[L[m - 2]] += 1
    return counts


def _compact_results():
    return ([_rows(simulate(n, make_rng(n), e)) for n in (2, 3, 200, 5000) for e in Embedding],
            [a.tolist() for a in _replay.direct_chain_replay(*_binomial_chain())],
            _walk_last_block_counts(6).tolist(),
            exact_oracles.enumerate_parking(5).probs,
            exact_oracles.enumerate_spanning_trees(5).probs)


def test_compact_state_gives_the_same_results(monkeypatch):
    # every walk on int32 memoryviews from n = 2 on
    expected = _compact_results()
    monkeypatch.setattr(_replay, "COMPACT_N", 2)
    assert _compact_results() == expected


@pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16])
def test_compact_state_matches_lists_at_the_cut(monkeypatch, n):
    walk, links = _replay._direct_walk, []

    def recording_walk(elem, prey_j, parent, size, roots, L, R):
        links.append((type(parent), type(size), type(roots)))
        walk(elem, prey_j, parent, size, roots, L, R)

    monkeypatch.setattr(_replay, "_direct_walk", recording_walk)
    for embedding in Embedding:
        batches = []
        for cut in (2, n + 1):  # compact state, then lists
            monkeypatch.setattr(_replay, "COMPACT_N", cut)
            batches.append(simulate(n, make_rng(17), embedding))
        compact, lists = batches
        for col in EventBatch.__slots__[1:]:
            assert np.array_equal(getattr(compact, col), getattr(lists, col)), (embedding, col)
    # int32 links, then lists; the sizes a list both times
    assert links == [(memoryview, list, memoryview), (list, list, list)]


def test_interpreted_state_is_compact_from_the_cut():
    cut = _replay.COMPACT_N
    # the parking walk's parents and its empty places' links, the direct
    # walk's root-slot parents and its roots
    for n in (cut - 1, cut):
        ranges = (range(n), range(-1, n - 1), range(1, n + 1), range(-1, -n - 1, -1),
                  range(n - 1, -1, -1))
        for state, values in [(_replay._ints(r), list(r)) for r in ranges]:
            if n < cut:
                assert state == values
            else:
                assert isinstance(state, memoryview) and state.format == "i" and state.itemsize == 4
                assert state.tolist() == values


def _spectrum_by_merges(batch, step):
    """Reference spectrum: the first `step` merges applied one at a time."""
    spectrum = {1: batch.n}
    for i in range(step):
        for size in (int(batch.L[i]), int(batch.R[i])):
            left = spectrum[size] - 1
            if left:
                spectrum[size] = left
            else:
                del spectrum[size]
        merged = int(batch.L[i] + batch.R[i])
        spectrum[merged] = spectrum.get(merged, 0) + 1
    return spectrum


@pytest.mark.parametrize("embedding", list(Embedding))
def test_spectrum_matches_merge_by_merge_reference(embedding):
    for n in (2, 3, 120, 1000):
        batch = simulate(n, make_rng(n + 1), embedding)
        for step in sorted({0, 1, n // 3, n // 2, n - 2, n - 1}):
            spectrum = batch.spectrum_at(step)
            assert spectrum == _spectrum_by_merges(batch, step), (n, step)
            assert all(type(k) is int and type(c) is int and c > 0 for k, c in spectrum.items())
        for step in (-1, n):
            with pytest.raises(ValueError):
                batch.spectrum_at(step)


def test_largest_cluster_curve_matches_spectrum():
    batch = simulate(120, make_rng(8), Embedding.PARKING)
    for step in (0, 5, 60, 119):
        assert batch.largest_cluster_at(step) == max(batch.spectrum_at(step))


def test_displacement_identity_at_scale():
    # E[2D - L + 1] = 0 per merge (D uniform on {0..L-1} given L)
    batch = simulate(100_000, make_rng(55), Embedding.PARKING)
    diffs = 2.0 * batch.D - batch.L + 1.0
    stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 4.0 * stderr


def test_sparse_regime_largest_cluster_shrinks():
    # B at step n - n^0.75, divided by n, falls as n grows
    means = []
    for i, n in enumerate((300, 3000, 30000)):
        rng = make_rng(40 + i)
        k = int(n - n**0.75)
        vals = [simulate(n, rng, Embedding.DIRECT).largest_cluster_at(k) / n for _ in range(20)]
        means.append(sum(vals) / len(vals))
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("n", [2, 3, 7, 50, 1000, 100_000])
def test_parking_scan_matches_replay(n):
    # total displacement and largest block read from the tries' histogram
    for rep in range(5):
        tries = parking_tries(n, substream_rng(n, rep))
        batch = simulate(n, substream_rng(n, rep), Embedding.PARKING)
        carry, occupied = _replay.parking_scan(np.bincount(tries, minlength=n)[None])
        assert carry.sum() == batch.D.sum()
        assert occupied.sum() == n - 1 and not occupied[0, -1]
        steps = sorted({0, 1, n // 2, n - 2, n - 1})
        h = np.stack([np.bincount(tries[:k], minlength=n) for k in steps])
        largest = _replay.parking_largest_block(h)
        assert largest.tolist() == [batch.largest_cluster_at(k) for k in steps]


@pytest.mark.parametrize("n", [2, 3, 7, 1000])
def test_parking_scan_of_a_stacked_block_matches_rows_and_walks(n):
    # one block mixing k = 0, 1, n//2 and n-1 cars, random tries and k cars
    # all at one place: wrapping past place n-1, so that the block they fill
    # comes first in its rotated row, or ending at place n-2, so that it
    # ends at the row's last place
    rng = make_rng(n)
    ks, tries = [], []
    for k in sorted({0, 1, n // 2, n - 1}):
        crafted = [np.full(n - 1, (n - max(1, k // 2)) % n), np.full(n - 1, max(0, n - 1 - k))]
        for t in [rng.integers(0, n, n - 1) for _ in range(3)] + crafted * (0 < k < n - 1):
            ks.append(k)
            tries.append(t)
    h = np.stack([np.bincount(t[:k], minlength=n) for k, t in zip(ks, tries)])
    carry, occupied = _replay.parking_scan(h)
    largest = _replay.parking_largest_block(h)
    if n > 2:
        starts = np.argmin(np.cumsum(h - 1, axis=1), axis=1)
        assert len(set(starts.tolist())) > 2
    first, last = [], []
    for r, (k, t) in enumerate(zip(ks, tries)):
        alone = _replay.parking_scan(h[r:r + 1])
        assert np.array_equal(carry[r], alone[0][0]) and np.array_equal(occupied[r], alone[1][0])
        L, R, D = _replay.parking_replay(n, t)
        assert int(carry[r].sum()) == int(D[:k].sum())
        assert largest[r] == EventBatch(n, L, R, np.zeros(n - 1), D).largest_cluster_at(k)
        assert largest[r] == _replay.parking_largest_block(h[r:r + 1])[0]
        empty = np.flatnonzero(~occupied[r])
        first.append(largest[r] == empty[0] + 1)
        last.append(largest[r] == (n - 1 - empty[-2] if len(empty) > 1 else n))
    if n > 2:  # the largest block is the row's first block, or its last, in some rows
        assert any(f and not l for f, l in zip(first, last))
        assert any(l and not f for f, l in zip(first, last))


def test_last_block_counts_match_walk():
    for m in range(2, 8):
        assert np.array_equal(_replay.parking_last_block_counts(m), _walk_last_block_counts(m))
