import numpy as np
import pytest

from addcoal import exact_oracles
from addcoal.process_core import (
    Embedding,
    MergeEvent,
    cluster_spectrum,
    largest_cluster,
    new_monodisperse,
    simulate,
    simulate_direct,
    simulate_parking,
    simulate_spanning_tree,
    step_direct,
)
from addcoal.seeding import make_rng

ALL_SIMS = [simulate_direct, simulate_spanning_tree, simulate_parking]


def test_monodisperse_basics():
    state = new_monodisperse(5)
    assert state.clusters == 5
    assert largest_cluster(state) == 1
    assert cluster_spectrum(new_monodisperse(100)) == {1: 100}
    assert new_monodisperse(1).clusters == 1


def test_monodisperse_rejects_zero():
    with pytest.raises(ValueError):
        new_monodisperse(0)


def test_step_direct_n2_only_outcome():
    state = new_monodisperse(2)
    ev = step_direct(state, make_rng(0))
    assert (ev.k, ev.s, ev.S, ev.L, ev.R) == (1, 1, 1, 1, 1)
    assert ev.D == 0
    assert state.clusters == 1
    with pytest.raises(ValueError):
        step_direct(state, make_rng(0))


def test_step_direct_full_run_invariants():
    n = 30
    state = new_monodisperse(n)
    rng = make_rng(11)
    for k in range(1, n):
        ev = step_direct(state, rng)
        assert ev.k == k
        assert {ev.L, ev.R} == {ev.s, ev.S}
        assert ev.R == ev.s + ev.S - ev.L
        assert 0 <= ev.D <= ev.L - 1
        assert 1 <= ev.s <= ev.S and ev.s + ev.S <= n
        assert state.clusters == n - k
        live = state.live_roots()
        assert len(set(int(r) for r in live)) == state.clusters
        assert int(state.size[live].sum()) == n
    assert largest_cluster(state) == n
    assert cluster_spectrum(state) == {n: 1}


def test_step_direct_size_biased_pick():
    # n=3 step 2: the remaining pair is {1, 2}; P(L = 2) = 2/3
    hits = 0
    trials = 4000
    rng = make_rng(5)
    for _ in range(trials):
        state = new_monodisperse(3)
        step_direct(state, rng)
        ev = step_direct(state, rng)
        assert (ev.s, ev.S) == (1, 2)
        hits += ev.L == 2
    assert abs(hits / trials - 2 / 3) < 0.03


@pytest.mark.parametrize("sim", ALL_SIMS)
def test_event_invariants_all_embeddings(sim):
    n = 257
    batch = sim(n, make_rng(123))
    assert len(batch) == n - 1
    assert np.array_equal(batch.R, batch.s + batch.S - batch.L)
    assert np.all((batch.L == batch.s) | (batch.L == batch.S))
    assert np.all(batch.D >= 0) and np.all(batch.D <= batch.L - 1)
    assert np.all(batch.s >= 1) and np.all(batch.s <= batch.S)
    assert np.all(batch.s + batch.S <= n)
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
    for field in ("s", "S", "L", "R", "u", "D"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    c = sim(400, make_rng(100))
    assert not all(
        np.array_equal(getattr(a, f), getattr(c, f)) for f in ("s", "S", "L", "u")
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


def test_batch_indexing_and_iter():
    batch = simulate_direct(10, make_rng(3))
    events = list(batch)
    assert len(events) == 9
    assert all(isinstance(e, MergeEvent) for e in events)
    assert [e.k for e in events] == list(range(1, 10))
    assert batch[-1] == events[-1]
    with pytest.raises(IndexError):
        batch[9]


def test_tree_and_parking_n2():
    t = simulate_spanning_tree(2, make_rng(0))
    p = simulate_parking(2, make_rng(0))
    for b in (t, p):
        ev = b[0]
        assert (ev.s, ev.S, ev.L, ev.R, ev.D) == (1, 1, 1, 1, 0)


def _direct_events(n, elem, prey_u, uprime):
    """Plain-python step-by-step replay of the two-stage chain: (s, S, L, R, D) per step.

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
        events.append((min(x, y), max(x, y), x, y, int(float(uprime[k]) * x)))
    return events


def test_direct_kernel_matches_reference_replay():
    from addcoal._replay import direct_chain_replay

    def check(n, elem, prey_u, uprime):
        got = direct_chain_replay(n, elem, prey_u, uprime)
        rows = [tuple(int(col[k]) for col in got) for k in range(n - 1)]
        assert rows == _direct_events(n, elem, prey_u, uprime)

    rng = make_rng(31)
    for n in (2, 3, 60):
        for _ in range(20):
            check(n, rng.integers(0, n, size=n - 1), rng.random(n - 1), rng.random(n - 1))
    # u just below 1: the prey pick is the last live root, at the clamp's boundary,
    # and D = L - 1, the largest displacement below L
    top = np.nextafter(1.0, 0.0)
    for n in (2, 3, 60):
        ones = np.full(n - 1, top)
        check(n, rng.integers(0, n, size=n - 1), ones, ones)
        _, _, L, _, D = direct_chain_replay(n, np.zeros(n - 1, np.int64), ones, ones)
        assert np.array_equal(D, L - 1)


def test_parking_kernel_matches_reference_replay():
    # the kernel must agree with the pure-python block bookkeeping
    from addcoal._replay import parking_replay

    rng = make_rng(17)
    for n in (60, 2, 3):
        for _ in range(20):
            tries = rng.integers(0, n, size=n - 1)
            batch_events = exact_oracles._parking_events(n, [int(t) for t in tries])
            s, S, L, R, D = parking_replay(n, tries)
            assert batch_events == tuple(
                (int(a), int(b), int(c), int(d)) for a, b, c, d in zip(s, S, L, D)
            )


def test_tree_kernel_matches_reference_replay():
    rng = make_rng(23)
    from addcoal._replay import tree_parents_from_prufer, tree_replay

    for n in (40, 2, 3):
        for _ in range(20):
            prufer = rng.integers(0, n, size=n - 2)
            par_kernel = tree_parents_from_prufer(n, prufer)
            par_ref = exact_oracles._tree_parents(n, [int(v) for v in prufer])
            assert list(par_kernel) == par_ref
            order = rng.permutation(n - 1)
            uprime = rng.random(n - 1)
            s, S, L, R, D = tree_replay(n, par_kernel, order, uprime)
            ref = exact_oracles._tree_events(n, par_ref, [int(i) for i in order])
            assert ref == tuple((int(a), int(b), int(c)) for a, b, c in zip(s, S, L))


def test_largest_cluster_curve_matches_spectrum():
    batch = simulate_parking(120, make_rng(8))
    curve = batch.largest_cluster_curve()
    for step in (0, 5, 60, 119):
        assert curve[step] == max(batch.spectrum_at(step))
        assert curve[step] == batch.largest_cluster_at(step)


def test_displacement_identity_at_scale():
    # E[2D - L + 1] = 0 per merge (D uniform on {0..L-1} given L)
    batch = simulate_parking(100_000, make_rng(55))
    diffs = 2.0 * batch.D - batch.L + 1.0
    stderr = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) < 4.0 * stderr


def test_sparse_regime_largest_cluster_shrinks():
    # B at step n - n^0.75, divided by n, falls as n grows
    means = []
    for i, n in enumerate((300, 3000, 30000)):
        rng = make_rng(40 + i)
        k = int(n - n**0.75)
        vals = [simulate_direct(n, rng).largest_cluster_at(k) / n for _ in range(20)]
        means.append(sum(vals) / len(vals))
    assert means[0] > means[1] > means[2]
