"""The union-find replay of edge insertion: the reference for `_replay.tree_replay`,
which computes the same (L, R) without it, for one tree or a block."""


def tree_walk(n, bottom, top):
    """Insert the edges bottom[k] (parent side) -- top[k] in order -> (L, R) lists.

    A component's representative is its vertex nearest the root, so top[k],
    whose edge upward is still missing, represents its own component: only
    the bottom endpoint needs a find (with path halving).  L is the size of
    the component holding the bottom endpoint, R that of the top one.
    """
    parent = list(range(n))
    csize = [1] * n
    L, R = [], []
    for a, v in zip(bottom.tolist(), top.tolist()):
        p = parent[a]
        while p != a:
            g = parent[p]
            parent[a] = g
            a = g
            p = parent[a]
        x = csize[a]
        y = csize[v]
        parent[v] = a
        csize[a] = x + y
        L.append(x)
        R.append(y)
    return L, R
