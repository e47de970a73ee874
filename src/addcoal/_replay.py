"""Merge-event replay kernels for the three coalescence embeddings.

Each kernel consumes pre-drawn random inputs and replays the chain with
deterministic integer/float arithmetic, so a given seed yields the same
event stream.  All uniform-index picks use ``int(u * m)`` on
``u in [0, 1)``, i.e. plain floor.

Every replay returns the ordered split of each merge, one entry per step:
L, the size of the size-biased side (predator / component of the edge's
bottom endpoint / block holding the car's first try), and R, that of the
other side.  Parking also returns D, the probed distance in {0, ..., L-1};
the direct and tree runs draw theirs next to their inputs (`process_core`).

The direct and parking chains each have one walk (`_direct_walk`,
`_parking_walk`), and the tree's Prufer decode one (`_prufer_walk`).  A
walk holds only its loop; everything fixed by the step index or by the
loop's outputs (prey index, parking's D) is computed in numpy by the
public kernel around it.  The walk runs as plain Python over
``memoryview``s of the numpy inputs and outputs, with its union-find state
in lists below ``COMPACT_N`` places and in int32 ``memoryview``s from there
on, so that a long chain's state fits in L2 (the direct walk's sizes stay a
list; see `_ints`); both read and write the same values, so the streams
are bit-identical.

The direct chain links by union by size, which keeps every tree of s
elements at most floor(log2 s) high whatever the inputs (Tarjan 1975;
Tarjan and van Leeuwen 1984), so its finds neither compress paths nor
test for convergence in lockstep: `_direct_walk` climbs and only reads,
and `direct_chain_rows` takes a fixed number of gathers per step.

A tree's edge insertions need no walk: `tree_replay` reads every split
from the tree and its insertion times in a few numpy passes (each vertex's
nearest ancestor inserted after it, the subtree sizes of the forest those
links form, and one sort), without a loop over the merges.  A block of
trees is one forest of rows * n vertices, so one call replays a tree or a
block, the exact oracles' tree enumeration included.

Many short direct and parking chains replay in lockstep instead:
`direct_chain_rows` and `parking_rows` run union-find steps over a row
axis in numpy, which beats one kernel call per chain once a block holds
at least n rows.  Each parking car takes one find: the block after a car's
filled place ends at the next empty place, which a circular doubly linked
list of the empty places gives.  `prufer_rows` decodes a block's Prufer
sequences the same way.  Every caller splits its rows by one rule,
`row_blocks`, and `process_core.simulate_rows` picks the single-chain or
the lockstep kernel for each block.  The parking and tree enumerations of
the exact oracles run `parking_rows` and `prufer_rows` too.  The
single-chain kernels stay for long chains; the walks are the lockstep
kernels' test reference, and the tests keep a union-find walk of edge
insertion as the reference for `tree_replay`.

Parking statistics that depend only on which places the first k cars try,
not on the order they arrive in, skip the walk: `parking_scan` reads them
from per-place car counts in a few numpy passes.
"""

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# read by perfbench/run.py's provenance record: the walks run as plain Python only
HAVE_NUMBA = False

#: n from which the walks keep their union-find state in int32 memoryviews
COMPACT_N = 1 << 16

# Containers the walks run over: lists and memoryviews, which the
# interpreter indexes several times faster than numpy arrays (each numpy
# read boxes a new scalar).  The union-find state is a list below
# COMPACT_N, and an int32 memoryview from it: a list holds an 8-byte
# pointer and a 32-byte int per place, so at n = 1e5 the direct walk's two
# link lists take 8 MB, past a 2 MiB L2, where int32 takes 0.8 MB.  Below
# the cut the state fits in cache either way, and lists index faster.  The
# direct walk's two link lists break even between 4e4 and 65535 places,
# the parking walk's three (parents and the empty places' two links) near
# 2.5e4, so parking chains just below the cut run on the slower lists (the
# list-vs-int32 tables in BENCH_compact_state.json and
# BENCH_parking_list.json).  The direct walk's sizes stay a list at every
# n (`[1] * n` in `direct_chain_replay`): all but a few hundred are below
# 257, ints CPython shares, so the list takes 8 bytes a place and its reads
# make no new int, which speeds the walk at n = 1e5 by about 5 %.
# n < 2**31 (`process_core._check_n`), so no index or size wraps.
def _ints(r):
    """The ints of range r as union-find state: a list, or int32 from COMPACT_N of them."""
    if len(r) < COMPACT_N:
        return list(r)
    return memoryview(np.arange(r.start, r.stop, r.step, dtype=np.int32))


def _int64(a):
    return np.ascontiguousarray(a, dtype=np.int64)


def _direct_walk(elem, prey_j, parent, size, roots, L, R):
    """Union-find loop of the two-stage chain; fills L[k], R[k].

    Slot s of the live roots is roots[~s], so at step k the n-k live roots
    fill roots[k:], the last slot at roots[k].  A root's own parent entry
    holds ~s < 0: the sign marks it as a root and indexes its slot, so no
    inverse of roots is kept.  The predator's slot takes the last live
    root, and prey_j[k] = n-1-j indexes, as roots[~j] does, the prey's
    slot j, uniform on the n-1-k that remain.  Union by size keeps a tree
    of s elements at most floor(log2 s) high, so the find only reads.
    """
    for k, a, j in zip(range(len(L)), elem, prey_j):
        p = parent[a]
        while p >= 0:
            a = p
            p = parent[a]
        # swap the predator out so the prey pick is uniform on the rest
        last = roots[k]
        roots[p] = last
        parent[last] = p
        b = roots[j]
        x = size[a]
        y = size[b]
        if x < y:  # the prey's root keeps its slot
            parent[a] = b
            size[b] = x + y
        else:
            parent[a] = parent[b]
            parent[b] = a
            roots[j] = a
            size[a] = x + y
        L[k] = x
        R[k] = y


def direct_chain_replay(n, elem, prey_u):
    """Replay the two-stage chain: size-biased predator, uniform prey -> (L, R).

    elem[k] is a uniform element index in [0, n) whose root is the
    predator; prey_u[k] picks uniformly among the other n-1-k live roots.
    """
    m = n - 1
    L = np.empty(m, np.int64)
    R = np.empty(m, np.int64)
    prey = _prey_index(n, prey_u)
    np.subtract(m, prey, out=prey)  # slot j sits at roots[~j], that is roots[n-1-j]
    _direct_walk(memoryview(_int64(elem)), memoryview(prey), _ints(range(-1, -n - 1, -1)),
                 [1] * n, _ints(range(m, -1, -1)), memoryview(L), memoryview(R))
    return L, R


def _prey_index(n, prey_u):
    """Prey pick of each step k (the last axis): floor(u * left), where
    left = n-1-k counts the live roots besides the predator.

    No clamp is needed: u <= 1 - 2**-53, so for an integer left < 2**53
    the exact product lies at least left * 2**-53 below left, which is
    more than half the spacing of doubles there (exactly one spacing when
    left is a power of two).  Round-to-nearest then stays below left, and
    the pick is always in [0, left), which int32 holds as n < 2**31.
    """
    left = np.arange(n - 1, 0, -1)
    return (prey_u * left).astype(np.int32)


#: places (rows x n) one lockstep block of rows holds at once
BLOCK_CELLS = 1 << 14


def block_rows(n):
    """Rows of n places that fit one block of BLOCK_CELLS (at least one)."""
    return max(1, BLOCK_CELLS // n)


def row_blocks(n, total):
    """(start, stop) ranges of rows 0 .. total-1 in blocks of `block_rows(n)`
    rows: the one rule by which every replay loop splits its rows."""
    rows = block_rows(n)
    return [(start, min(start + rows, total)) for start in range(0, total, rows)]


def direct_chain_rows(n, elem, prey_u):
    """`_direct_walk` in lockstep over rows: (L, R), each of shape (rows, n-1).

    Row r replays the chain of elem[r] and prey_u[r] exactly as
    `direct_chain_replay` does.  The rows' union-find states sit side by
    side in rows*n flat places (row r owns r*n .. r*n+n-1), so the find,
    the predator's swap-out and the union are each a few fancy-index steps
    over all rows at once, and no two rows touch the same place.  A root
    points at itself, and pos[r] is its flat slot (roots[pos[r]] = r).
    Before step k no tree holds more than k+1 elements, so union by size
    keeps each at most floor(log2(k+1)) high, and the find is that many
    gathers a = parent[a], with no test and no write: a row that reaches
    its root early stays there.  Per step the cost is a fixed number of
    numpy calls, so this pays when rows >= n; one long chain stays on the
    walk.  L and R are filled a step at a time and returned as transposed
    views.
    """
    elem = _int64(elem)
    rows, m = elem.shape
    base = np.arange(0, rows * n, n, dtype=np.int64)  # row r owns r*n .. r*n+n-1
    # flat places, one row of each per step: the predator's element, the
    # prey's slot and the last live slot
    elem = np.add(elem.T, base, order="C")
    prey = np.add(_prey_index(n, prey_u).T, base, order="C")
    lasts = np.arange(m, 0, -1)[:, None] + base
    parent = np.arange(rows * n, dtype=np.int64)
    size = np.ones(rows * n, np.int64)
    roots = parent.copy()  # roots[base + j]: flat place of the row's j-th live root
    pos = parent.copy()
    L = np.empty((m, rows), np.int64)
    R = np.empty((m, rows), np.int64)
    for k in range(m):
        a = elem[k]
        for _ in range((k + 1).bit_length() - 1):
            a = parent[a]
        # swap the predator out so the prey pick is uniform on the rest
        ia = pos[a]
        last = roots[lasts[k]]
        roots[ia] = last
        pos[last] = ia
        jj = prey[k]
        b = roots[jj]
        x = size[a]
        y = size[b]
        small = x < y
        r = np.where(small, b, a)
        parent[np.where(small, a, b)] = r
        roots[jj] = r
        pos[r] = jj
        size[r] = x + y
        L[k] = x
        R[k] = y
    return L.T, R.T


def _parking_walk(tries, parent, prv, nxt, L, R, P):
    """Union-find loop of circular parking; fills P[c], L[c] and R[c].

    A block is a maximal run of occupied places plus the empty place that
    ends it (clockwise), and that empty place is the block's representative.
    The empty places also form a circular doubly linked list (prv, nxt).
    Car c fills the empty place P[c] = a of the block holding its first
    try, which runs from just after the empty place L[c] = prv[a] up to a,
    and merges it into the next block, which runs up to the empty place
    R[c] = nxt[a] and then ends the merged block.  So one find per car:
    a leaves the list and links under nxt[a].  The kernel around the walk
    forms the block sizes from these places.
    """
    for c, a in zip(range(len(L)), tries):
        p = parent[a]
        while p != a:
            g = parent[p]
            parent[a] = g
            a = g
            p = parent[a]
        b = nxt[a]
        l = prv[a]
        nxt[l] = b
        prv[b] = l
        parent[a] = b
        P[c] = a
        L[c] = l
        R[c] = b


def _parking_splits(n, P, L, R, first):
    """(L, R, D) in place from the filled places P, the empty places L before
    and R after them, and the first tries (all on one circle of n places):
    L = (P - L) mod n, R = (R - P) mod n and D = (P - first) mod n."""
    np.subtract(P, L, out=L)
    np.remainder(L, n, out=L)
    np.subtract(R, P, out=R)
    np.remainder(R, n, out=R)
    np.subtract(P, first, out=P)
    np.remainder(P, n, out=P)
    return L, R, P


def parking_replay(n, tries):
    """Replay circular parking with linear probing -> (L, R, D).

    tries[c] is the c-th car's uniform first try.  Parking a car merges
    the block holding its first try with the next block clockwise.  L is
    the size of the block holding the first try, R the size of the block
    after the filled place, and D the probed distance.  At least two places
    are empty before each car, so the empty places before and after the
    filled one differ from it, and each size lies in [1, n).
    """
    m = n - 1
    tries = _int64(tries)
    L = np.empty(m, np.int64)
    R = np.empty(m, np.int64)
    P = np.empty(m, np.int64)
    prv = _ints(range(-1, m))
    prv[0] = m
    nxt = _ints(range(1, n + 1))
    nxt[m] = 0
    _parking_walk(memoryview(tries), _ints(range(n)), prv, nxt, memoryview(L), memoryview(R),
                  memoryview(P))
    return _parking_splits(n, P, L, R, tries)


def parking_rows(n, tries):
    """`_parking_walk` in lockstep over rows: (L, R, D), each of shape (rows, n-1).

    Row r parks the cars of tries[r] exactly as `parking_replay` does.  The
    rows' union-find states and lists of empty places sit side by side in
    rows*n flat places as in `direct_chain_rows` (each row's list closes on
    itself), so each car is one find of its first try and a few fancy-index
    steps over all rows.  Parking links the filled place under the next
    empty one, not by size, so no bound on a tree's height tells how many
    steps a find takes: it halves paths until every row has reached its
    root, and a row already there repeats parent[a] = a, which changes
    nothing.  Rows own disjoint places, so no row's halving writes a place
    that another row reads.  The outputs are filled a car at a time and
    returned as transposed views.
    """
    tries = _int64(tries)
    rows, m = tries.shape
    base = np.arange(0, rows * n, n, dtype=np.int64)  # row r owns r*n .. r*n+n-1
    first = np.add(tries.T, base, order="C")  # flat first tries, one row of each per car
    parent = np.arange(rows * n, dtype=np.int64)
    prv = parent - 1
    prv[base] = base + m
    nxt = parent + 1
    nxt[base + m] = base
    L = np.empty((m, rows), np.int64)
    R = np.empty((m, rows), np.int64)
    P = np.empty((m, rows), np.int64)
    for c in range(m):
        a = first[c]
        p = parent[a]
        while (p != a).any():
            g = parent[p]
            parent[a] = g
            a = g
            p = parent[a]
        b = nxt[a]
        l = prv[a]
        nxt[l] = b
        prv[b] = l
        parent[a] = b
        P[c] = a
        L[c] = l
        R[c] = b
    return tuple(col.T for col in _parking_splits(n, P, L, R, first))


def parking_scan(h):
    """Order-free state of circular parking from per-place car counts.

    h[r, i] counts the cars of row r whose first try is place i; each row
    holds k < n cars.  Linear probing fills the same places, with the same
    total displacement, whatever order the cars arrive in (Flajolet, Poblete
    and Viola 1998), so h fixes both.  Each row is rotated to start just
    after the argmin of the prefix sums S of h - 1: no car probes past that
    place, so the Lindley recursion carry_j = max(0, carry_{j-1} + h_j - 1)
    started at 0 gives the number of cars that probe past each place, and
    it is S (rotated, less its minimum) less its running minimum clipped at 0.

    S is formed once, over two laps of the circle (the second adds the lap
    total k - n), so each rotated row is one window of that doubled row:
    one gather, no index mod n and no second cumsum.  The doubled row lies
    in [-2n, n), which int32 holds up to n = 2**30, and the carry then
    takes half the memory of an int64 one.

    Returns (carry, occupied), both of shape (rows, n) in rotated order:
    carry (int32, or int64 past 2**30 places) sums to the total
    displacement, and the last place of every row is empty, so no run of
    occupied places wraps.
    """
    h = np.asarray(h)
    rows, n = h.shape
    S = np.empty((rows, 2 * n), np.int32 if n <= 1 << 30 else np.int64)
    lap = S[:, :n]
    np.subtract(h, 1, out=lap, casting="unsafe")
    np.cumsum(lap, axis=1, out=lap)
    np.add(lap, lap[:, -1:], out=S[:, n:])
    at = np.arange(rows)
    start = lap.argmin(axis=1)
    low0 = S[at, start]
    # each row from just after its minimum, one lap on; the minimum stands
    # for the running minimum's start at 0
    S = sliding_window_view(S, n, axis=1)[at, start + 1]
    low = np.minimum(S, low0[:, None])
    np.minimum.accumulate(low, axis=1, out=low)
    S -= low
    # a place stays empty exactly where the running minimum falls
    occupied = np.empty((rows, n), bool)
    np.equal(low[:, 0], low0, out=occupied[:, 0])
    np.equal(low[:, 1:], low[:, :-1], out=occupied[:, 1:])
    return S, occupied


def parking_largest_block(h):
    """Largest block per row of car counts h, read from the gaps between
    the empty places of `parking_scan`'s rotated rows.

    A block is the run of occupied places up to an empty place and that
    empty place, so its size is the gap from the empty place before it.
    Every rotated row ends with an empty place, so over the flat places the
    gap before a row's first empty place runs from the row's start, no gap
    crosses two rows, and one `reduceat` takes every row's largest.
    """
    _, occupied = parking_scan(h)
    rows, n = occupied.shape
    empty = np.flatnonzero(~occupied)
    gap = np.diff(empty, prepend=-1)
    return np.maximum.reduceat(gap, np.searchsorted(empty, np.arange(0, rows * n, n)))


def parking_last_block_counts(m):
    """Exact counts of the final merge's L over all m**(m-1) parking configs.

    counts[k] = number of first-try vectors whose last arrival lands in a
    block of size k.  Integer-exact; divide by m**(m-1) for probabilities.
    The first m - 2 tries are grouped by multiset, weighted by the number
    of orders each has; they leave two empty places, which split the circle
    into blocks of sizes b and m - b, and the last try lands in a block of
    size b in b ways.
    """
    tries = np.array(list(itertools.combinations_with_replacement(range(m), m - 2)), np.int64)
    h = np.zeros((len(tries), m), np.int64)
    np.add.at(h, (np.arange(len(tries))[:, None], tries), 1)
    factorial = np.array([math.factorial(i) for i in range(m - 1)], np.int64)
    orders = factorial[m - 2] // factorial[h].prod(axis=1)
    _, occupied = parking_scan(h)
    b = occupied.argmin(axis=1) + 1  # the block up to the first empty place
    counts = np.zeros(m, np.int64)
    np.add.at(counts, b, orders * b)
    np.add.at(counts, m - b, orders * (m - b))
    return counts


def _prufer_walk(prufer, degree, par):
    """Decode a Prufer sequence into par, rooted at vertex 0.

    degree[v] is 1 + the multiplicity of v in the sequence.  Each removed
    leaf records its neighbour toward n-1; reversing the path from 0 to
    n-1 then roots the tree at 0 (par[0] = -1).
    """
    n = len(par)
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in prufer:
        par[leaf] = v
        d = degree[v] - 1
        degree[v] = d
        if d == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    par[leaf] = n - 1
    prev = -1
    v = 0
    while v != n - 1:
        up = par[v]
        par[v] = prev
        prev = v
        v = up
    par[n - 1] = prev


def tree_parents_from_prufer(n, prufer):
    """Decode a Prufer sequence and root the tree at vertex 0.

    Returns par[v] = parent of v (par[0] = -1).
    """
    prufer = _int64(prufer)
    degree = np.bincount(prufer, minlength=n) + 1
    par = np.empty(n, np.int64)
    _prufer_walk(memoryview(prufer), degree.tolist(), memoryview(par))
    return par


def prufer_rows(n, prufer):
    """`_prufer_walk` in lockstep over rows: par of shape (rows, n), rooted at 0.

    Row r decodes prufer[r] (shape (rows, n-2)) exactly as
    `tree_parents_from_prufer` does.  A vertex is a leaf before step i once
    its last entry in the sequence, last[v], is below i, so each step takes
    the smallest v with last[v] < i as its leaf, joins it to prufer[:, i],
    and sets last[v] = n so that it is never taken again.  That is one
    comparison and one argmax over the rows' (rows, n) table per step, in
    place of the walk's scan; past the last step the smallest leaf left is
    joined to n-1, the value par starts with.
    """
    prufer = _int64(prufer)
    rows = len(prufer)
    base = np.arange(rows, dtype=np.int64) * n  # row r owns r*n .. r*n+n-1
    last = np.full((rows, n), -1, np.int64)
    flat = last.reshape(-1)
    for i, v in enumerate(prufer.T):  # column by column, so the last entry wins
        flat[base + v] = i
    par = np.full(rows * n, n - 1, np.int64)
    for i, v in enumerate(prufer.T):
        leaf = base + (last < i).argmax(axis=1)
        par[leaf] = v
        flat[leaf] = n
    # reverse each row's path from 0 to n-1; a row that has reached n-1
    # rewrites par[n-1] with the same vertex until every row has
    end = base + (n - 1)
    v = base
    prev = np.full(rows, -1, np.int64)
    while True:
        done = v == end
        up = par[v]
        par[v] = prev
        if done.all():
            return par.reshape(rows, n)
        prev, v = np.where(done, prev, v - base), np.where(done, v, base + up)


def _later_ancestors(n, bottom, top):
    """rp[v], the nearest proper ancestor of v inserted after v, and the mask
    of the roots, over a forest of rows * n vertices.

    bottom and top have shape (rows, n-1) and hold flat vertices: row r's
    lie in r*n .. r*n+n-1.  Insertion times are t[top[r, k]] = k and t = n
    at a row's root, which is never inserted, so rp[v] is the root when no
    other ancestor comes after v; rp[root] = root.  No link leaves a row, so
    the rows' times never meet.  By synchronous pointer doubling: every
    candidate starts at v's parent, and while it went in before v, v jumps
    to the candidate's own candidate (every vertex jumped over went in
    before v too).  In the uniform edge orders `process_core` draws that
    takes 16-19 rounds at n = 1e5.  A vertex whose candidates have all
    settled climbs one rp-link per round, though: a path inserted from the
    far end up, with the far-end leaf last, takes n - 2 rounds.
    """
    t = np.full(top.size + len(top), n, np.int32)
    t[top] = np.arange(n - 1, dtype=np.int32)
    rp = np.arange(len(t))
    rp[top] = bottom
    live = np.flatnonzero(t[rp] < t)
    t_live = t[live]
    while live.size:
        up = rp[rp[live]]
        rp[live] = up
        keep = t[up] < t_live
        # `np.compress`: a mask this mixed mispredicts when it indexes
        live, t_live = np.compress(keep, live), np.compress(keep, t_live)
    return rp, t == n


def _subtree_sizes(rp):
    """Size of each vertex's subtree in the forest rp: 1 + the vertices whose
    rp-chain passes through it.  A link into a root reads that root plus
    len(rp), past every vertex, where the chain stops (a root's own entry
    is left at 1).

    All chains climb one level per round, and each round adds 1 where they
    stand.  So there are as many rounds as the forest is high, and the work
    is the sum of the rp-depths: 14-16 rounds and about 5.5 n entries at
    n = 1e5 in a uniform edge order, but about n rounds and n^2 / 2 entries
    on a path inserted from the far end up.
    """
    end = len(rp)
    size = np.ones(end, np.int64)
    chain = rp
    while chain.size:
        # most chains go on in each round, so a mask, which copies no
        # index array, is no slower here than `np.compress`
        chain = chain[chain < end]
        np.add.at(size, chain, 1)
        chain = rp[chain]
    return size


def tree_replay(n, bottom, top):
    """Insert rooted trees' edges in order, merging components -> (L, R).

    bottom and top have shape (..., n-1), one tree per row; a 1-D call
    replays one tree.  The k-th inserted edge of a row joins bottom[k]
    (parent side) to top[k]; a tree with parents par inserted in the order
    perm has top = perm + 1 and bottom = par[top].  L is the size of the
    component holding the bottom endpoint, R the size of the top component,
    both of top's shape.

    No merge is replayed.  Just before step k, v = top[k] tops a component
    holding v and every w whose rp-chain passes through v (`_later_ancestors`),
    and the bottom's component is topped by u = rp[v], holding u and the
    rp-subtrees of those rp-children of u inserted before v.  So R_k is the
    size of v's subtree in the forest rp (`_subtree_sizes`), and L_k is 1 +
    the sizes of the rp-children of u inserted before step k: an exclusive
    prefix sum of R over the steps sorted by (u, k), restarted at each u.

    The rows are one forest: row r's vertices are offset by r*n, so a
    block takes the same few numpy passes as one tree.  Each link into a
    root moves past the vertices, to that root plus rows*n, where
    `_subtree_sizes` stops; u still names one row's root there, so the
    sort key u*(n-1) + k keeps the rows apart.  Both loops take under 20
    rounds at n = 1e5 in the uniform edge orders simulated; on a path
    inserted from the far end up either takes about n, where a union-find
    walk of the insertions (the tests' reference) stays near linear.
    """
    m = n - 1
    shape = np.shape(top)
    top = _int64(top).reshape(-1, m)
    bottom = _int64(bottom).reshape(top.shape)
    # a lone tree keeps its vertices: offset copies would add pages that
    # each long chain's call faults in again (5-15 % of a call at n = 1e5)
    if len(top) > 1:
        base = np.arange(0, top.size + len(top), n)[:, None]  # row r owns r*n .. r*n+n-1
        top = top + base
        bottom = bottom + base
    rp, root = _later_ancestors(n, bottom, top)
    rp[root[rp]] += len(rp)
    del root
    R = _subtree_sizes(rp)[top].reshape(-1)
    u = rp[top]
    del rp, top  # each array freed early lowers the peak, which a long chain's run sets
    key = u * m
    key += np.arange(m)
    order = np.argsort(key, axis=None)  # rp-siblings together, in step order
    del key
    u = u.reshape(-1)[order]
    head = np.r_[True, u[1:] != u[:-1]]  # the first sorted step of each u
    del u
    L = R[order]
    ahead = np.cumsum(L)
    ahead -= L  # sizes of the sorted steps before each one
    np.multiply(ahead, head, out=L)
    ahead -= np.maximum.accumulate(L, out=L)  # ... and of those under the same u
    ahead += 1
    L[order] = ahead
    return L.reshape(shape), R.reshape(shape)
