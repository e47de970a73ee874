"""Exact ground truth at desk scale: enumerations, DP, closed formulas.

The parking and tree enumerations give the exact law over every equally
likely configuration (first-try vectors; labeled trees x edge orders) but
replay one representative per symmetry class, each class as large as the
next.  Relabelling the non-root vertices in insertion order, sigma_perm:
perm[k] + 1 -> k + 1, maps a tree in edge order perm to a tree in the
identity order with the same merges (Pitman 1999), so each of the
n**(n-2) trees is replayed once.  Rotating a first-try vector by
-tries[0] leaves circular parking's merges and probe distances unchanged
(Flajolet, Poblete and Viola 1998), so only the n**(n-2) vectors with
tries[0] = 0 are replayed.  They run the kernels that small-n simulation
runs, `_replay.parking_rows`, `_replay.prufer_rows` and
`_replay.tree_replay`, which the tests check against the walks (the
trees against a union-find walk of edge insertion kept in the tests),
so criterion 1 certifies the simulating code itself;
the tests also check both reductions against the full enumerations.
Both count each block of rows by one integer code per row
(`sequence_codes`), and `decode_counts` turns the codes into sequences,
as it does for the chain chi-square's draws.  The final-merge law is
counted by the order-free parking scan (`_replay.parking_last_block_counts`),
so criterion 2 certifies that scan.  The partition DP and the
two-stage-chain sequence law step through integer partitions with the
(L, R) transition law of `_merges`, whose integer weights share one
denominator per step: they carry integer numerators over the running
product of those denominators and make each Fraction once per output
entry.  At small n the three routes must produce identical event-sequence
distributions.  The sequence laws keep (s, S, L) keys rather than (L, R),
because the benchmark's oracle workload projects the parking law on
("s", "S", "L") and compares it with the tree and chain laws by TV distance.
"""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _replay
from .cost_engine import split_mean
from .smoluchowski import log_tree_coefficient

PARKING_ENUM_MAX = 8  # 8^6 ~ 2.6e5 replayed vectors (tries[0] = 0); codes fit int64 up to 8
TREE_ENUM_MAX = 6  # 6^4 = 1296 replayed trees, one per tree (edge orders by relabelling)
DP_MAX = 20  # p(20) = 627 partition states
DP_SEQUENCE_MAX = 7
PMK_EXACT_MAX = 30


# ---------------------------------------------------------------------------
# closed formulas
# ---------------------------------------------------------------------------


def p_mk(m: int, k: int):
    """P(final predator block of an m-chain has size k) = P(L_{m-1,m} = k).

    C(m-2, k-1) k^(k-1) (m-k)^(m-k-2) / m^(m-2), an exact Fraction for
    m <= 30; beyond, the float k e^(A_k + A_(m-k) - A_m) / (m - 1) with
    A_k = log(k^(k-1) / k!) from `smoluchowski.log_tree_coefficient`.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k must be in [1, {m - 1}]")
    if m <= PMK_EXACT_MAX:
        num = math.comb(m - 2, k - 1) * k ** (k - 1)
        if m - k >= 2:
            num *= (m - k) ** (m - k - 2)
        return Fraction(num, m ** (m - 2))
    return _p_mk_floats(m, np.array([k]))[0]


def p_mk_row(m: int) -> list:
    """[p_mk(m, k) for k = 1..m-1]; past m = 30 from one `log_tree_coefficient` call."""
    if m <= PMK_EXACT_MAX:
        return [p_mk(m, k) for k in range(1, m)]
    return _p_mk_floats(m, np.arange(1, m))


def _p_mk_floats(m, ks):
    """p_mk's float law at each k of the int array ks: one `log_tree_coefficient`
    call for all of them, one `math.exp` per k."""
    a_k, a_r, a_m = log_tree_coefficient(np.stack([ks, m - ks, np.full_like(ks, m)])).tolist()
    return [k * math.exp(x + y - z) / (m - 1) for k, x, y, z in zip(ks.tolist(), a_k, a_r, a_m)]


def borel_pmf(k: int) -> float:
    """Borel(1) mass k^(k-1) e^-k / k! = e^(A_k - k), the m -> infinity limit of p_{m, m-k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return math.exp(float(log_tree_coefficient(k)) - k)


def parking_final_merge_marginal(m: int):
    """Exact law of the final merge's L over all m**(m-1) parking configs."""
    if not 2 <= m <= PARKING_ENUM_MAX:
        raise ValueError(f"parking enumeration supports 2 <= m <= {PARKING_ENUM_MAX}")
    counts = _replay.parking_last_block_counts(m)
    total = m ** (m - 1)
    return {k: Fraction(int(counts[k]), total) for k in range(1, m) if counts[k]}


# ---------------------------------------------------------------------------
# event-sequence distributions
# ---------------------------------------------------------------------------


def _sum_by(law: dict, key) -> dict:
    """The law of key(x) when x has the law {x: p}, exact."""
    out = {}
    for x, p in law.items():
        k = key(x)
        out[k] = out.get(k, Fraction(0)) + p
    return out


def _conditional_means(joint: dict) -> dict:
    """{g: E[t | g]} from a joint law {(g, t): p}, exact."""
    mass = {}
    weighted = {}
    for (g, t), p in joint.items():
        mass[g] = mass.get(g, Fraction(0)) + p
        weighted[g] = weighted.get(g, Fraction(0)) + p * t
    return {g: weighted[g] / mass[g] for g in mass}


@dataclass(frozen=True)
class EventSequenceDistribution:
    """Exact law of a full merge-event sequence.

    Keys are tuples of per-step tuples, in field order; values are exact
    Fractions summing to 1.
    """

    n: int
    fields: tuple
    probs: dict

    def project(self, fields) -> "EventSequenceDistribution":
        fields = tuple(fields)
        idx = [self.fields.index(f) for f in fields]
        out = _sum_by(self.probs, lambda seq: tuple(tuple(step[i] for i in idx) for step in seq))
        return EventSequenceDistribution(self.n, fields, out)

    def tv_distance(self, other: "EventSequenceDistribution") -> Fraction:
        if self.fields != other.fields:
            raise ValueError("distributions carry different fields")
        keys = set(self.probs) | set(other.probs)
        zero = Fraction(0)
        diff = sum(abs(self.probs.get(k, zero) - other.probs.get(k, zero)) for k in keys)
        return diff / 2


def sequence_codes(n: int, *columns):
    """Mixed-radix code of each row's sequence of (L_k, R_k[, D_k]).

    Digit k is L_k n + R_k, or (L_k n + R_k) n + D_k.  Every entry lies in
    [0, n), so a code of n - 1 steps is below n^(2(n-1)), or n^(3(n-1))
    with D: int64 holds it up to n = 10, or n = 8 with D (8^21 = 2^63).
    """
    digit = 0
    for col in columns:
        digit = digit * n + col
    return (digit * (n ** len(columns)) ** np.arange(n - 1)).sum(axis=1)


def decode_counts(n: int, counts: dict, width: int) -> dict:
    """{per-step (s, S, L[, D]) sequence: count} from {`sequence_codes` code: count}.

    Each code has `width` digits per step, (L, R) or (L, R, D); (L, R)
    fixes (s, S, L), so distinct codes give distinct sequences.
    """
    radix = n ** width
    digits = np.array(list(counts), np.int64)[:, None] // radix ** np.arange(n - 1) % radix
    L, R, *D = (digits // n ** (width - 1 - i) % n for i in range(width))
    steps = np.stack([np.minimum(L, R), np.maximum(L, R), L, *D], axis=-1).tolist()
    return {tuple(map(tuple, seq)): c for seq, c in zip(steps, counts.values())}


def _count_codes(counts: Counter, codes) -> None:
    values, c = np.unique(codes, return_counts=True)
    counts.update(dict(zip(values.tolist(), c.tolist())))


def _digit_blocks(n: int, width: int, total: int):
    """Rows of the `width` base-n digits (most significant first) of 0 .. total-1,
    in lexicographic order, in blocks of `_replay.block_rows(n)` rows."""
    place = n ** np.arange(width - 1, -1, -1)
    rows = _replay.block_rows(n)
    for start in range(0, total, rows):
        yield np.arange(start, min(start + rows, total))[:, None] // place % n


def enumerate_parking(n: int) -> EventSequenceDistribution:
    """Exact law of (s, S, L, D) sequences over all n**(n-1) first-try vectors.

    Rotating every try by -tries[0] (mod n) maps the n vectors of a rotation
    class one to one onto the class's vector with tries[0] = 0, and leaves
    L, R and D unchanged, since circular parking has no distinguished place.
    So only the n**(n-2) vectors with tries[0] = 0 are replayed, in
    lexicographic order by `_replay.parking_rows`, and each counts 1 over
    n**(n-2).  Each block of rows is counted by its `sequence_codes` (with
    D) before the next one is built.
    """
    if not 2 <= n <= PARKING_ENUM_MAX:
        raise ValueError(f"parking enumeration supports 2 <= n <= {PARKING_ENUM_MAX}")
    total = n ** (n - 2)
    counts = Counter()
    for tries in _digit_blocks(n, n - 1, total):  # the leading digit, tries[0], is 0
        L, R, D = _replay.parking_rows(n, tries)
        _count_codes(counts, sequence_codes(n, L, R, D))
    probs = {seq: Fraction(c, total) for seq, c in decode_counts(n, counts, 3).items()}
    return EventSequenceDistribution(n, ("s", "S", "L", "D"), probs)


def enumerate_spanning_trees(n: int) -> EventSequenceDistribution:
    """Exact law of (s, S, L) sequences over all trees x edge orders.

    Trees come from the n**(n-2) Prufer sequences, each rooted at 0, and
    edge orders from the (n-1)! permutations perm, whose k-th edge joins
    vertex perm[k] + 1 to its parent.  Relabelling by sigma_perm, which maps
    vertex perm[k] + 1 to k + 1 and fixes the root 0, is a bijection on the
    trees rooted at 0 that turns each tree in the order perm into its image
    in the identity order with the same (L, R) at every step (Pitman 1999).
    So every edge order gives the same law, and each tree is replayed once,
    in the identity order (top = 1..n-1, bottom = par[top]), counting 1
    over n**(n-2).  Each block of `_replay.block_rows(n)` Prufer sequences
    is decoded by `_replay.prufer_rows`, replayed by one `_replay.tree_replay`
    call and counted by its rows' `sequence_codes` before the next one.
    """
    if not 2 <= n <= TREE_ENUM_MAX:
        raise ValueError(f"tree enumeration supports 2 <= n <= {TREE_ENUM_MAX}")
    total = n ** (n - 2)
    top = np.arange(1, n)
    counts = Counter()
    for prufer in _digit_blocks(n, n - 2, total):
        bottom = _replay.prufer_rows(n, prufer)[:, 1:]  # par[top]
        L, R = _replay.tree_replay(n, bottom, np.broadcast_to(top, bottom.shape))
        _count_codes(counts, sequence_codes(n, L, R))
    probs = {seq: Fraction(c, total) for seq, c in decode_counts(n, counts, 2).items()}
    return EventSequenceDistribution(n, ("s", "S", "L"), probs)


# ---------------------------------------------------------------------------
# partition dynamic program
# ---------------------------------------------------------------------------


def _merges(state, n: int):
    """Each distinct merge of a partition of n: (L, R, weight, next state).

    A pair of clusters with sizes (x, y), x <= y, among m live clusters
    merges with probability (x + y) / (n (m - 1)), times the number of
    cluster pairs with those sizes, and its size-biased side L is x with
    probability x / (x + y).  So (L, R) = (x, y) has the integer weight
    x * ways over the denominator n (m - 1), which every merge of every
    state with m clusters shares; when x == y the one entry carries both
    orders, 2 x * ways.
    """
    cnt = Counter(state)
    sizes = sorted(cnt)
    for i, x in enumerate(sizes):
        for y in sizes[i:]:
            ways = cnt[x] * (cnt[x] - 1) // 2 if x == y else cnt[x] * cnt[y]
            if ways:
                out = list(state)
                out.remove(x)
                out.remove(y)
                out.append(x + y)
                out.sort(reverse=True)
                ns = tuple(out)
                if x == y:
                    yield x, x, 2 * x * ways, ns
                else:
                    yield x, y, x * ways, ns
                    yield y, x, y * ways, ns


class PartitionDp:
    """Forward DP over canonical partitions of n with exact probabilities.

    `steps[k - 1]` is the exact joint law {(L, R): p} of the k-th merge,
    summed over the (L, R, weight, next state) entries of `_merges`.  The
    DP carries integer numerators over the running product of the steps'
    denominators and makes each Fraction once, at the end of its step.
    """

    def __init__(self, n: int):
        if not 2 <= n <= DP_MAX:
            raise ValueError(f"partition DP supports 2 <= n <= {DP_MAX}")
        self.n = n
        self.steps = []
        dist = {(1,) * n: 1}
        den = 1
        for k in range(1, n):
            step = {}
            ndist = {}
            for state, p in dist.items():
                for l, r, w, ns in _merges(state, n):
                    pr = p * w
                    step[l, r] = step.get((l, r), 0) + pr
                    ndist[ns] = ndist.get(ns, 0) + pr
            den *= n * (n - k)  # `_merges`' n (m - 1), with m = n - k + 1 clusters
            self.steps.append({lr: Fraction(p, den) for lr, p in step.items()})
            dist = ndist
        self.final = {state: Fraction(p, den) for state, p in dist.items()}

    def expected_step_cost(self, functional, k: int) -> Fraction:
        """E[cost of the k-th merge], summed over its (L, R) law."""
        return sum(
            (p * split_mean(functional, l, r) for (l, r), p in self.steps[k - 1].items()),
            Fraction(0),
        )

    def l_marginal(self, k: int):
        """{l: P(L_k = l)}, exact."""
        return _sum_by(self.steps[k - 1], lambda lr: lr[0])

    def conditional_r_given_l(self, k: int):
        """{l: E[R_k | L_k = l]}, exact."""
        return _conditional_means(self.steps[k - 1])


def partition_dp(n: int) -> PartitionDp:
    return PartitionDp(n)


def dp_sequence_distribution(n: int) -> EventSequenceDistribution:
    """Exact law of (s, S, L) sequences under the two-stage chain, by
    enumerating all partition paths with their size-biased splits."""
    if not 2 <= n <= DP_SEQUENCE_MAX:
        raise ValueError(f"DP sequence enumeration supports 2 <= n <= {DP_SEQUENCE_MAX}")
    frontier = {(): ((1,) * n, 1)}  # integer numerators over the running denominator
    den = 1
    for k in range(1, n):
        nxt = {}
        for prefix, (state, p) in frontier.items():
            for l, r, w, ns in _merges(state, n):
                seq = prefix + ((min(l, r), max(l, r), l),)
                nxt[seq] = (ns, nxt[seq][1] + p * w if seq in nxt else p * w)
        den *= n * (n - k)
        frontier = nxt
    probs = {seq: Fraction(p, den) for seq, (_, p) in frontier.items()}
    return EventSequenceDistribution(n, ("s", "S", "L"), probs)
