import decimal
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from addcoal import _replay
from addcoal.exact_oracles import (
    _sum_by,
    borel_pmf,
    dp_sequence_distribution,
    enumerate_parking,
    enumerate_spanning_trees,
    p_mk,
    p_mk_row,
    parking_final_merge_marginal,
    partition_dp,
)
from addcoal.process_core import EventBatch
from tree_walk import tree_walk


def test_p_mk_examples():
    assert p_mk(2, 1) == 1
    assert p_mk(3, 2) == Fraction(2, 3)
    assert p_mk(3, 1) == Fraction(1, 3)


def test_p_mk_rows_sum_to_one_exactly():
    for m in range(2, 31):
        assert sum(p_mk(m, k) for k in range(1, m)) == 1


@pytest.mark.parametrize("m", [2, 30, 31, 50, 1000])
def test_p_mk_row_equals_per_k_calls_bit_for_bit(m):
    row = p_mk_row(m)
    single = [p_mk(m, k) for k in range(1, m)]
    assert [type(p) for p in row] == [type(p) for p in single]
    if m > 30:
        row, single = [p.hex() for p in row], [p.hex() for p in single]
    assert row == single


def test_p_mk_out_of_range():
    with pytest.raises(ValueError):
        p_mk(3, 0)
    with pytest.raises(ValueError):
        p_mk(3, 3)
    with pytest.raises(ValueError):
        p_mk(1, 1)


def _p_mk_integers(m, k):
    """C(m-2, k-1) k^(k-1) (m-k)^(m-k-2) / m^(m-2) as an integer numerator and denominator."""
    r = m - k
    return math.comb(m - 2, k - 1) * k ** (k - 1) * r ** (r - 1), r * m ** (m - 2)


def test_p_mk_log_space_continuity():
    # the float branch, from m = 31 on, against exact integer ratios (int / int rounds once)
    assert type(p_mk(30, 7)) is Fraction and p_mk(30, 7) == Fraction(*_p_mk_integers(30, 7))
    cases = [(m, k) for m in range(31, 301) for k in range(1, m)]
    cases += [(m, k) for m in (500, 1000, 2000) for k in range(1, m, 7)]
    worst = 0.0
    for m, k in cases:
        num, den = _p_mk_integers(m, k)
        p, exact = p_mk(m, k), num / den
        assert type(p) is float
        worst = max(worst, abs(p - exact) / exact)
    assert worst <= 1e-12, worst


def test_borel_values():
    assert abs(borel_pmf(1) - math.exp(-1)) < 1e-15
    assert abs(borel_pmf(2) - math.exp(-2)) < 1e-15
    assert abs(borel_pmf(1) - 0.367879) < 5e-7
    # k^(k-1) e^-k / k! at 40 digits with the exact k!
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for k in (10, 99, 100, 101, 1000, 10**4):
            kd = decimal.Decimal(k)
            exact = kd ** (k - 1) * (-kd).exp() / math.factorial(k)
            error = abs((decimal.Decimal(borel_pmf(k)) - exact) / exact)
            assert error <= decimal.Decimal("2e-12"), (k, error)


def test_borel_is_p_mk_limit():
    worst = max(abs(p_mk(10_000, 10_000 - k) - borel_pmf(k)) for k in range(1, 11))
    assert worst < 1e-3


def test_enumerate_parking_small():
    d2 = enumerate_parking(2)
    assert d2.probs == {((1, 1, 1, 0),): Fraction(1)}
    d3 = enumerate_parking(3)
    assert _sum_by(d3.project(("L",)).probs, lambda seq: seq[1][0]) == {
        1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert sum(d3.probs.values()) == 1


def test_enumeration_caps():
    with pytest.raises(ValueError):
        enumerate_parking(9)
    with pytest.raises(ValueError):
        enumerate_spanning_trees(7)
    with pytest.raises(ValueError):
        partition_dp(21)
    with pytest.raises(ValueError):
        dp_sequence_distribution(8)


def test_enumerate_spanning_trees_small():
    d2 = enumerate_spanning_trees(2)
    assert d2.probs == {((1, 1, 1),): Fraction(1)}
    d3 = enumerate_spanning_trees(3)
    assert _sum_by(d3.project(("L",)).probs, lambda seq: seq[1][0]) == {
        1: Fraction(1, 3), 2: Fraction(2, 3)}


def _law(counts, total):
    """{(s, S, L) sequence: p} of equally likely walks, from counts of their
    (L_1..L_m, R_1..R_m) rows."""
    law = Counter()
    for key, c in counts.items():
        m = len(key) // 2
        seq = tuple((min(l, r), max(l, r), l) for l, r in zip(key[:m], key[m:]))
        law[seq] += Fraction(c, total)
    return dict(law)


def test_tree_enumeration_matches_one_walk_per_configuration():
    # n = 6: every tree in every edge order, walked one by one by the
    # union-find reference, against the enumeration's one identity-order
    # lockstep replay per tree, which this certifies
    n = 6
    tops = np.array(list(itertools.permutations(range(1, n))), np.int64)  # edge order + 1
    counts = Counter()
    for prufer in itertools.product(range(n), repeat=n - 2):
        bottoms = _replay.tree_parents_from_prufer(n, prufer)[tops]
        for bottom, top in zip(bottoms, tops):
            L, R = tree_walk(n, bottom, top)
            counts[(*L, *R)] += 1
    total = n ** (n - 2) * math.factorial(n - 1)
    assert enumerate_spanning_trees(n).probs == _law(counts, total)


def test_parking_enumeration_matches_every_first_try_vector():
    # all 7^6 first-try vectors through `parking_rows`, against the
    # enumeration's 7^5 with tries[0] = 0 (one per rotation class), which
    # span several lockstep blocks
    n = 7
    total = n ** (n - 1)
    rows = _replay.block_rows(n)
    assert total // n > rows
    place = n ** np.arange(n - 2, -1, -1)  # the tries are the base-n digits of the index
    counts = Counter()
    for start in range(0, total, rows):
        tries = np.arange(start, min(start + rows, total))[:, None] // place % n
        keys, c = np.unique(np.hstack(_replay.parking_rows(n, tries)), axis=0, return_counts=True)
        counts.update(dict(zip(map(tuple, keys.tolist()), c.tolist())))
    law = Counter()
    for key, c in counts.items():
        L, R, D = key[:n - 1], key[n - 1:2 * n - 2], key[2 * n - 2:]
        law[tuple((min(l, r), max(l, r), l, d) for l, r, d in zip(L, R, D))] += Fraction(c, total)
    assert enumerate_parking(n).probs == dict(law)


def _coded_chain_inputs(n, codes):
    """Element and prey-uniform rows of the direct chain's inputs numbered `codes`.

    Code c counts, in mixed radix, the n**(n-1) (n-1)! equally likely
    inputs: an element in [0, n) per step, then a prey index j in [0, left)
    per step, where left = n-1-k live roots remain besides the predator at
    step k; j is fed as the uniform (j + 0.5) / left, which picks j.
    """
    m = n - 1
    elem = np.empty((len(codes), m), np.int64)
    prey_u = np.empty((len(codes), m))
    for k in range(m):
        codes, elem[:, k] = np.divmod(codes, n)
    for k, left in enumerate(range(n - 1, 0, -1)):
        codes, j = np.divmod(codes, left)
        prey_u[:, k] = (j + 0.5) / left
    return elem, prey_u


@pytest.mark.parametrize("n", range(2, 7))
def test_direct_kernels_replay_the_exact_chain_law(n):
    # every input replayed once: the (s, S, L) law of each kernel is the chain's exactly
    total = n ** (n - 1) * math.factorial(n - 1)
    law = dp_sequence_distribution(n).probs
    counts = Counter()
    rows = _replay.block_rows(n)
    for start in range(0, total, rows):
        elem, prey_u = _coded_chain_inputs(n, np.arange(start, min(start + rows, total)))
        L, R = _replay.direct_chain_rows(n, elem, prey_u)
        counts.update(map(tuple, np.hstack([L, R]).tolist()))
    assert _law(counts, total) == law
    if n <= 5:
        elem, prey_u = _coded_chain_inputs(n, np.arange(total))
        walks = Counter((*L, *R) for L, R in (
            _replay.direct_chain_replay(n, e, u) for e, u in zip(elem, prey_u)))
        assert _law(walks, total) == law


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_three_way_equivalence(n):
    park = enumerate_parking(n).project(("s", "S", "L"))
    tree = enumerate_spanning_trees(n)
    chain = dp_sequence_distribution(n)
    assert park.tv_distance(tree) == 0
    assert park.tv_distance(chain) == 0
    assert tree.tv_distance(chain) == 0


def test_tv_distance_requires_same_fields():
    park = enumerate_parking(3)
    tree = enumerate_spanning_trees(3)
    with pytest.raises(ValueError):
        park.tv_distance(tree)


def test_conditional_size_biasedness():
    # P(L = x | merged pair {x, y}) = x / (x + y), by enumeration
    for n in (3, 4, 5):
        dist = enumerate_parking(n)
        for k in range(1, n):
            joint = _sum_by(dist.project(("s", "S", "L")).probs, lambda seq: seq[k - 1])
            pair_mass = {}
            for (s, S, L), p in joint.items():
                pair_mass[(s, S)] = pair_mass.get((s, S), Fraction(0)) + p
            for (s, S, L), p in joint.items():
                assert p / pair_mass[(s, S)] == Fraction(
                    L, s + S
                ) or s == S  # equal sizes carry the whole pair mass at L = s
    # explicit n=3 step 2: merged pair is always {1, 2}
    d3 = enumerate_parking(3)
    assert _sum_by(d3.project(("s", "S")).probs, lambda seq: seq[1]) == {(1, 2): Fraction(1)}


def test_final_merge_marginal_matches_p_mk():
    for m in range(2, 8):
        marginal = parking_final_merge_marginal(m)
        for k in range(1, m):
            assert marginal.get(k, Fraction(0)) == p_mk(m, k)


def test_p_mk_is_the_dp_final_merge_law():
    # the parking enumeration certifies p_mk only for m <= 8; the DP reaches m = 20
    for n in range(2, 21):
        assert partition_dp(n).l_marginal(n - 1) == {k: p_mk(n, k) for k in range(1, n)}


def test_partition_dp_expected_totals():
    dp = partition_dp(3)
    assert sum(dp.expected_step_cost("predator", k) for k in (1, 2)) == Fraction(8, 3)
    assert sum(dp.expected_step_cost("prey", k) for k in (1, 2)) == Fraction(7, 3)
    # per-step: step 1 merges two singletons, L = 1 always
    assert dp.expected_step_cost("predator", 1) == 1
    assert dp.expected_step_cost("predator", 2) == Fraction(5, 3)


def test_partition_dp_mass_and_final_state():
    for n in (4, 7, 12):
        dp = partition_dp(n)
        for step in dp.steps:  # a law of (L, R) with L + R <= n
            assert sum(step.values()) == 1
            assert all(p > 0 and l >= 1 and r >= 1 and l + r <= n for (l, r), p in step.items())
        assert dp.final == {(n,): Fraction(1)}


def _fraction_dp(n):
    """Reference DP in plain Fractions, one cluster pair at a time: (steps, final).

    Clusters i < j of sizes x and y among m merge with probability
    (x + y) / (n (m - 1)); the merge is (L, R) = (x, y) with probability
    x / (n (m - 1)) and (y, x) with probability y / (n (m - 1)).
    """
    steps = []
    dist = {(1,) * n: Fraction(1)}
    for _ in range(1, n):
        step, ndist = {}, {}
        for state, p in dist.items():
            m = len(state)
            for i, j in itertools.combinations(range(m), 2):
                x, y = state[i], state[j]
                rest = state[:i] + state[i + 1:j] + state[j + 1:] + (x + y,)
                ns = tuple(sorted(rest, reverse=True))
                for l, r in ((x, y), (y, x)):
                    step[l, r] = step.get((l, r), 0) + p * Fraction(l, n * (m - 1))
                ndist[ns] = ndist.get(ns, 0) + p * Fraction(x + y, n * (m - 1))
        steps.append(step)
        dist = ndist
    return steps, dist


@pytest.mark.parametrize("n", range(2, 11))
def test_partition_dp_matches_a_plain_fraction_dp(n):
    dp = partition_dp(n)
    steps, final = _fraction_dp(n)
    assert dp.steps == steps and dp.final == final
    assert all(type(p) is Fraction for step in dp.steps for p in step.values())
    assert all(type(p) is Fraction for p in dp.final.values())


@pytest.mark.parametrize("n", [3, 5, 8])
def test_equation_rl(n):
    dp = partition_dp(n)
    for k in range(1, n):
        for l, val in dp.conditional_r_given_l(k).items():
            assert val == Fraction(n - l, n - k)


def test_l_marginal_is_size_biased():
    dp = partition_dp(4)
    joint_ss = _sum_by(dp.steps[1], lambda lr: (min(lr), max(lr)))  # (s, S) at k = 2
    marg = dp.l_marginal(2)
    expect = {}
    for (x, y), p in joint_ss.items():
        expect[x] = expect.get(x, Fraction(0)) + p * Fraction(x, x + y)
        expect[y] = expect.get(y, Fraction(0)) + p * Fraction(y, x + y)
    assert marg == expect


@pytest.mark.parametrize("n", range(2, 7))
def test_parking_scan_blocks_match_block_config_count(n):
    # after j cars, for every first-try vector, the block-configuration count
    # the scan leaves ({size: blocks}, each block ending at an empty place) is
    # the cluster spectrum of the walk on the same tries
    tries = np.array(list(itertools.product(range(n), repeat=n - 1)), np.int64)
    walks = [EventBatch(n, L, R, None, D)
             for L, R, D in (_replay.parking_replay(n, t) for t in tries)]
    h = np.zeros((len(tries), n), np.int64)
    for j in range(n - 1):
        _, occupied = _replay.parking_scan(h)
        for walk, row in zip(walks, occupied):
            sizes = np.diff(np.flatnonzero(~row), prepend=-1)
            assert Counter(sizes.tolist()) == walk.spectrum_at(j)
        h[np.arange(len(tries)), tries[:, j]] += 1


def test_final_prey_mean_scales_like_sqrt_m():
    # E[R at the last merge] = sum (m-k) p_mk(m,k) grows like sqrt(pi/2) sqrt(m)
    import math

    for m in (10_000, 40_000):
        mean_r = sum((m - k) * p_mk(m, k) for k in range(1, m))
        target = math.sqrt(math.pi / 2.0) * math.sqrt(m)
        assert abs(mean_r / target - 1.0) < 0.05, (m, mean_r, target)


def test_marginals_match_across_oracles_n6():
    # spot-check a heavier case: per-step L marginals at n = 6
    park = enumerate_parking(6)
    dp = partition_dp(6)
    for k in (1, 3, 5):
        assert _sum_by(park.project(("L",)).probs, lambda seq: seq[k - 1][0]) == dp.l_marginal(k)
