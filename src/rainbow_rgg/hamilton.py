"""Hamilton path and cycle search on small graphs.

Two engines: an exact bitmask dynamic program, complete but exponential,
for graphs up to ~14 vertices, and a deterministic rotation-extension
heuristic for larger ones.  The heuristic is incomplete (it can miss an
existing cycle) but on the dense survivor graphs produced inside cells it
essentially always lands; callers treat None as a stage failure.

Vertices are 0..n-1, adjacency is a sequence of int collections.  All
choices are made in ascending vertex order, so results are reproducible.
"""

from __future__ import annotations

__all__ = [
    "exact_hamilton_path",
    "exact_hamilton_cycle",
    "hamilton_path",
    "hamilton_cycle",
    "EXACT_LIMIT",
]

# largest graph handed to the exact bitmask DP
EXACT_LIMIT = 10


def _as_sets(n, adj):
    out = [set(adj[v]) for v in range(n)]
    for v, s in enumerate(out):
        s.discard(v)
    return out


def _hamilton_dp(n, adj, seeds, step):
    """Bitmask DP over the vertex sets containing a seed.  Returns the end
    mask of the full set (bit v: some path from a seed through every vertex
    ends at v) and the parent of each (set, end).  Sets are visited in
    increasing order from 1 in the given step; step 2 keeps the sets that
    hold vertex 0."""
    ends = [0] * (1 << n)
    parent = {}
    for v in seeds:
        ends[1 << v] = 1 << v
    full = (1 << n) - 1
    for mask in range(1, full + 1, step):
        e = ends[mask]
        v = 0
        while e:
            if e & 1:
                for w in adj[v]:
                    bit = 1 << w
                    if mask & bit:
                        continue
                    nm = mask | bit
                    if not ends[nm] & bit:
                        ends[nm] |= bit
                        parent[(nm, w)] = v
            e >>= 1
            v += 1
    return ends[full], parent


def _unwind(n, parent, ends) -> list | None:
    """The path through every vertex ending at the lowest end bit."""
    if not ends:
        return None
    v = (ends & -ends).bit_length() - 1
    path = [v]
    mask = (1 << n) - 1
    while len(path) < n:
        u = parent[(mask, v)]
        mask ^= 1 << v
        path.append(u)
        v = u
    path.reverse()
    return path


def exact_hamilton_path(n, adj) -> list | None:
    """Complete search for a Hamilton path with free endpoints."""
    if n == 0:
        return None
    if n == 1:
        return [0]
    ends, parent = _hamilton_dp(n, _as_sets(n, adj), range(n), 1)
    return _unwind(n, parent, ends)


def exact_hamilton_cycle(n, adj) -> list | None:
    """Complete search for a Hamilton cycle, rooted at vertex 0."""
    if n < 3:
        return None
    adj = _as_sets(n, adj)
    ends, parent = _hamilton_dp(n, adj, [0], 2)
    close = sum(1 << w for w in adj[0])
    return _unwind(n, parent, ends & close & ~1)


def _posa_path(n, adj, start) -> list | None:
    """Rotation-extension from a fixed start; ascending-index choices."""
    path = [start]
    in_path = {start}
    while len(path) < n:
        u = path[-1]
        ext = None
        for w in sorted(adj[u]):
            if w not in in_path:
                ext = w
                break
        if ext is not None:
            path.append(ext)
            in_path.add(ext)
            continue
        # stuck: breadth-first search over rotation endpoints
        pos = {v: i for i, v in enumerate(path)}
        tried = {u}
        queue = [path]
        found = None
        qi = 0
        while qi < len(queue) and found is None:
            cur = queue[qi]
            qi += 1
            cpos = {v: i for i, v in enumerate(cur)} if cur is not path else pos
            e = cur[-1]
            for w in sorted(adj[e]):
                i = cpos.get(w)
                if i is None or i >= len(cur) - 2:
                    continue
                new = cur[:i + 1] + cur[i + 1:][::-1]
                ne = new[-1]
                if ne in tried:
                    continue
                tried.add(ne)
                if any(x not in in_path for x in adj[ne]):
                    found = new
                    break
                queue.append(new)
        if found is None:
            return None
        path = found
    return path


def _close_cycle(path, adj) -> list | None:
    n = len(path)
    if path[0] in adj[path[-1]]:
        return path
    head, tail = path[0], path[-1]
    for i in range(1, n - 2):
        if path[i] in adj[tail] and path[i + 1] in adj[head]:
            return path[:i + 1] + path[i + 1:][::-1]
    return None


def hamilton_path(n, adj) -> list | None:
    """Hamilton path with free endpoints; exact up to ``EXACT_LIMIT``
    vertices."""
    if n <= 0:
        return None
    if n == 1:
        return [0]
    if n <= EXACT_LIMIT:
        return exact_hamilton_path(n, adj)
    adj = _as_sets(n, adj)
    for start in range(n):
        got = _posa_path(n, adj, start)
        if got is not None:
            return got
    return None


def hamilton_cycle(n, adj) -> list | None:
    """Hamilton cycle as a vertex order (closing edge implied); exact up to
    ``EXACT_LIMIT`` vertices, rotation-extension with closing above it."""
    if n < 3:
        return None
    if n <= EXACT_LIMIT:
        return exact_hamilton_cycle(n, adj)
    adj = _as_sets(n, adj)
    for start in range(n):
        path = _posa_path(n, adj, start)
        if path is None:
            continue
        closed = _close_cycle(path, adj)
        if closed is not None:
            return closed
    return None
